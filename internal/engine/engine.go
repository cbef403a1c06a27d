package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distiq/internal/obs"
)

// Config configures an Engine.
type Config struct {
	// Workers bounds concurrent simulations; 0 (or negative) selects
	// GOMAXPROCS. Workers == 1 executes jobs strictly serially.
	Workers int
	// Store, when non-nil, backs the in-memory cache with a persistent
	// result store, so results are reused across processes:
	// NewStore(dir) for an on-disk directory (created on first write).
	// The store is borrowed, not owned: the caller closes it once the
	// engine is done.
	Store ResultStore
	// Simulate overrides the simulation function (tests inject stubs);
	// nil selects Simulate. Only the job key is known to determine what
	// an injected function returns, so an engine given one shares a run
	// between identical jobs only.
	Simulate func(Job) (Result, error)
	// Progress, when non-nil, is invoked once per resolved job.
	// Invocations are serialized by the engine.
	Progress func(Progress)
	// Obs, when non-nil, registers the engine's metrics on the registry:
	// resolution counters mirroring Stats, queue depth, worker occupancy
	// and a simulate-latency histogram.
	Obs *obs.Registry
	// NoBatch is ignored: every job resolves on its own.
	//
	// Deprecated: NoBatch exists only because the benchmark harness
	// still sets it; it goes away when the benchmark is next redefined.
	NoBatch bool
}

// Stats counts how the engine resolved the jobs requested so far. A
// snapshot returned by Engine.Stats is internally consistent: every
// resolved request is counted under exactly one of Simulated, MemoryHits,
// DiskHits, Shared or Canceled, so once the engine is idle
//
//	Requested == Simulated + MemoryHits + DiskHits + Shared + Canceled
//
// holds (minus any requests that failed in the simulator itself, which
// count only under Requested).
type Stats struct {
	// Requested is the number of Result calls (batch entries included).
	Requested int64
	// Simulated jobs ran the simulator. Each distinct simulation runs
	// once: jobs that differ only in their configuration name, or in an
	// FP side their benchmark never reaches, count here once between
	// them.
	Simulated int64
	// MemoryHits were served from the in-memory cache: the job's own
	// result, or that of a job with the same simulation identity adapted
	// to this one (its configuration name and idle FP breakdown).
	MemoryHits int64
	// DiskHits were loaded from the persistent store.
	DiskHits int64
	// Shared requests waited on an in-flight job with the same simulation
	// identity instead of re-simulating (single-flight deduplication):
	// an identical job, or one differing only in its configuration name
	// or in an FP side its benchmark never reaches.
	Shared int64
	// Batched is always zero.
	//
	// Deprecated: Batched exists only because the benchmark harness still
	// reads it; it goes away when the benchmark is next redefined.
	Batched int64
	// Canceled requests were abandoned by context cancellation before a
	// result was available (the job itself may still finish if another
	// requester owns it).
	Canceled int64
	// DiskErrors counts failed best-effort store writes.
	DiskErrors int64
}

// memoryCap bounds the engine's memory: past it, resolving a new job
// drops the least recently used result. At about 820 B per entry, result,
// digests and map slots included (TestMemoryFootprint), the memory holds
// at most about 0.8 MiB, and a long-lived engine stops growing with every
// distinct point it serves.
const memoryCap = 1024

// memEntry is one job's resolved result in the engine's memory, with
// the job's manifest leaf once a manifest has named it (Engine.Manifest).
// The map holds pointers, so a leaf is filled in place. prev and next
// link the entries in recency order (Engine.lru); key and id name the
// map and identity-index entries an eviction drops.
type memEntry struct {
	res        Result
	leaf       leafMemo
	key, id    Digest
	prev, next *memEntry
}

// leafMemo is the manifest leaf hash of a job's result, kept once ok; the
// job's store fingerprint is its digest. The leaf does not change while
// the result is in memory, so a repeat point's leaf costs a map lookup.
type leafMemo struct {
	leaf [sha256.Size]byte
	ok   bool
}

// call is one in-flight computation shared by all requesters of a
// simulation identity. err is the computation's own error; each requester
// reports it under its own benchmark and configuration.
type call struct {
	done chan struct{}
	res  Result
	err  error
	// abandoned marks a call whose owner was cancelled before computing:
	// its context error belongs to the owner, so surviving waiters retry
	// resolution instead of inheriting it.
	abandoned bool
}

// Engine runs experiment jobs across a bounded worker pool with
// single-flight deduplication, an in-memory cache of the memoryCap most
// recently used results and an optional persistent store. A result the
// cache has dropped costs one store read, or a re-simulation when no
// store backs the engine. All methods are safe for concurrent use.
//
// Every job-resolving method takes a context: cancellation stops
// scheduling (jobs that have not claimed a worker slot resolve promptly
// to the context's error) while jobs already simulating run to completion
// and persist to the store, so a cancelled sweep leaves the on-disk state
// consistent and a warm rerun completes only the remainder.
type Engine struct {
	sim func(Job) (Result, error)
	// injected marks an engine given Config.Simulate: every job's
	// identity is its key.
	injected bool
	progress func(Progress)
	store    ResultStore
	workers  int
	slots    slotQueue

	mu       sync.Mutex
	memory   map[Digest]*memEntry
	inflight map[Digest]*call
	// lru is the sentinel of memory's recency list: lru.next is the most
	// recently used entry and lru.prev the next to be dropped.
	lru memEntry
	// sims maps a hashed simulation identity to the digest of the job
	// whose run holds it, in flight or in memory, so jobs the simulator
	// cannot tell apart share that run. An entry lives exactly as long as
	// the memory or in-flight entry it names.
	sims map[Digest]Digest

	progMu   sync.Mutex
	resolved atomic.Int64
	total    atomic.Int64

	// queued and running feed the observability gauges: jobs waiting for
	// a worker slot and slots currently occupied. Maintained
	// unconditionally (two atomic adds per job) so wiring a registry
	// later needs no engine restart.
	queued  atomic.Int64
	running atomic.Int64
	// simDur, when non-nil, records the wall time of each simulator run.
	simDur *obs.Histogram

	// statsMu guards stats so Stats() snapshots are consistent even while
	// a cancellation is racing resolution (no half-counted request).
	statsMu sync.Mutex
	stats   Stats
}

// New returns an Engine. Store writes are best-effort: an unusable store
// (say, a directory that cannot be created) surfaces as DiskErrors, never
// as job failures.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sim := cfg.Simulate
	if sim == nil {
		sim = Simulate
	}
	e := &Engine{
		sim:      sim,
		injected: cfg.Simulate != nil,
		progress: cfg.Progress,
		workers:  workers,
		slots:    slotQueue{free: workers},
		memory:   make(map[Digest]*memEntry),
		inflight: make(map[Digest]*call),
		sims:     make(map[Digest]Digest),
		store:    cfg.Store,
	}
	e.lru.prev, e.lru.next = &e.lru, &e.lru
	if cfg.Obs != nil {
		e.instrument(cfg.Obs)
	}
	return e
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// slotQueue hands out the worker slots first come, first served: a job
// that finds none free joins a FIFO queue, and a released slot goes to
// the queue's oldest job.
type slotQueue struct {
	mu      sync.Mutex
	free    int       // free slots; nonzero only while no job waits
	waiters list.List // of *slotWaiter, oldest first
}

// slotWaiter is one job's claim on a worker slot.
type slotWaiter struct {
	granted chan struct{} // closed once the job holds a slot
	elem    *list.Element // queue position; nil once granted
}

// join claims a slot for one job: a free one at once, or else a place
// at the back of the queue. The job holds a slot once granted is closed.
func (q *slotQueue) join() *slotWaiter {
	w := &slotWaiter{granted: make(chan struct{})}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.free > 0 {
		q.free--
		close(w.granted)
	} else {
		w.elem = q.waiters.PushBack(w)
	}
	return w
}

// release frees a held slot, granting it to the oldest waiting job.
func (q *slotQueue) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if f := q.waiters.Front(); f != nil {
		w := q.waiters.Remove(f).(*slotWaiter)
		w.elem = nil
		close(w.granted)
		return
	}
	q.free++
}

// leave withdraws a cancelled job's claim: a job still waiting leaves
// the queue, and one granted a slot in the meantime passes it on.
func (q *slotQueue) leave(w *slotWaiter) {
	q.mu.Lock()
	if w.elem != nil {
		q.waiters.Remove(w.elem)
		w.elem = nil
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	q.release()
}

// Stats returns a consistent snapshot of the engine's resolution
// counters: all fields are read under one lock, so the identity
// documented on Stats holds at any moment, including mid-cancellation.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// bump applies one counter mutation under the stats lock.
func (e *Engine) bump(f func(*Stats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// Result resolves one job, blocking until it is available: from the
// in-memory cache, from an in-flight computation with the same simulation
// identity, from the persistent store, or by simulating on a worker slot.
// Errors are shared with concurrent requesters of the same simulation but
// never cached, so a later request retries.
func (e *Engine) Result(job Job) (Result, error) {
	return e.ResultCtx(context.Background(), job)
}

// ResultCtx is Result honoring ctx: a request cancelled before its job
// claims a worker slot (or while waiting on another requester's in-flight
// computation) returns ctx.Err() promptly; a job already simulating runs
// to completion and its result is cached and persisted as usual.
func (e *Engine) ResultCtx(ctx context.Context, job Job) (Result, error) {
	r, err, _ := e.resolve(ctx, job, job.digest(), nil)
	return r, err
}

// cancel accounts one request abandoned by context cancellation.
func (e *Engine) cancel(job Job, err error) (Result, error, Source) {
	e.bump(func(s *Stats) { s.Canceled++ })
	e.finish(job, SourceCanceled)
	return Result{}, err, SourceCanceled
}

// memoryHit resolves a job from its own result in memory, found by its
// digest, key, making that entry the most recently used, and accounts
// the request as a memory hit with its progress. It reports false,
// having accounted nothing, when the key is not in memory or ctx is
// done. resolve tries it first, and ResultStream calls it on the
// caller's goroutine, so a batch's warm jobs never wait.
func (e *Engine) memoryHit(ctx context.Context, job Job, key Digest) (Result, bool) {
	if ctx.Err() != nil {
		return Result{}, false
	}
	e.mu.Lock()
	m, ok := e.memory[key]
	var r Result
	if ok {
		m.unlink()
		e.pushFront(m)
		r = m.res
	}
	e.mu.Unlock()
	if !ok {
		return Result{}, false
	}
	e.bump(func(s *Stats) { s.Requested++; s.MemoryHits++ })
	e.total.Add(1)
	e.finish(job, SourceMemory)
	return r, true
}

// resolve is ResultCtx plus the resolution source, so batch callers can
// account per-batch how each of their jobs was satisfied; key is the
// job's digest. queued, when non-nil, is called once, as soon as the job's
// route is known (cached, cancelled, waiting on an in-flight run, or
// holding or queued for a worker slot); ResultStream waits for it before
// submitting the next job, and slots are granted in queue order, so a
// call's jobs claim worker slots in input order.
//
// The job's own key is looked up first (memoryHit). Only when it misses
// does the job pay for its simulation identity, and then it reuses or
// waits on the run of any job with that identity, adapting the result to
// itself and keeping the adapted result under its own key once it is
// persisted.
func (e *Engine) resolve(ctx context.Context, job Job, key Digest, queued func()) (Result, error, Source) {
	signal := func() {
		if queued != nil {
			queued()
			queued = nil
		}
	}
	if r, ok := e.memoryHit(ctx, job, key); ok {
		signal()
		return r, nil, SourceMemory
	}
	e.bump(func(s *Stats) { s.Requested++ })
	e.total.Add(1)
	id, fpIdle := e.identity(job, key)

retry:
	if err := ctx.Err(); err != nil {
		signal()
		return e.cancel(job, err)
	}
	e.mu.Lock()
	from := key
	r, c, found := e.lookup(key)
	if !found {
		if from, found = e.sims[id]; found {
			// A key in neither memory nor flight is a miss, never a
			// zero result.
			r, c, found = e.lookup(from)
		}
	}
	if found {
		e.mu.Unlock()
		signal()
		src, err := SourceMemory, error(nil)
		if c != nil {
			select {
			case <-c.done:
			case <-ctx.Done():
				return e.cancel(job, ctx.Err())
			}
			if c.abandoned {
				// The owner was cancelled before computing; its
				// context error is not this requester's. Retry
				// resolution (errors are never cached, so the
				// simulation is simply unowned again).
				goto retry
			}
			r, err, src = c.res, c.err, SourceShared
		}
		if err == nil && from != key {
			if r, err = job.adapt(r, fpIdle); err == nil && e.persist(ctx, job, r) {
				// Repeats of the job are plain memory hits from now
				// on. A requester that skipped the write leaves it,
				// and the memo, to a later call.
				e.mu.Lock()
				e.remember(key, id, r)
				e.mu.Unlock()
			}
		}
		e.bump(func(s *Stats) {
			if src == SourceShared {
				s.Shared++
			} else {
				s.MemoryHits++
			}
		})
		e.finish(job, src)
		return r, wrap(job, err), src
	}
	c = &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.sims[id] = key
	e.mu.Unlock()

	// Claim a worker slot, abandoning the job if ctx is cancelled first
	// (cancellation stops scheduling; the slot is never taken). A job
	// whose slot is already claimed runs to completion below, so the
	// persistent store stays consistent under cancellation.
	if !e.acquire(ctx, signal) {
		return e.abandon(job, key, id, c, ctx.Err())
	}
	res, err, src := e.compute(job)
	e.release()

	c.res, c.err = res, err
	e.mu.Lock()
	if err == nil {
		e.remember(key, id, res)
	} else {
		delete(e.sims, id)
	}
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	e.finish(job, src)
	return res, wrap(job, err), src
}

// lookup finds key's result in memory, making it the most recently
// used, or its computation in flight. The caller holds e.mu.
func (e *Engine) lookup(key Digest) (Result, *call, bool) {
	if m, ok := e.memory[key]; ok {
		m.unlink()
		e.pushFront(m)
		return m.res, nil, true
	}
	c, ok := e.inflight[key]
	return Result{}, c, ok
}

// remember keeps r in memory under key as the most recently used entry,
// replacing any entry the key had, and past memoryCap drops the least
// recently used one with the identity-index entry that names it, unless
// that key is in flight again (an adapted result can be kept while the
// job's own run is under way). id is the job's simulation identity. The
// caller holds e.mu.
func (e *Engine) remember(key, id Digest, r Result) {
	if old, ok := e.memory[key]; ok {
		old.unlink()
	}
	m := &memEntry{res: r, key: key, id: id}
	e.memory[key] = m
	e.pushFront(m)
	if len(e.memory) <= memoryCap {
		return
	}
	last := e.lru.prev
	last.unlink()
	delete(e.memory, last.key)
	if _, running := e.inflight[last.key]; !running && e.sims[last.id] == last.key {
		delete(e.sims, last.id)
	}
}

// pushFront links m in as the most recently used entry.
func (e *Engine) pushFront(m *memEntry) {
	m.prev, m.next = &e.lru, e.lru.next
	m.prev.next, m.next.prev = m, m
}

// unlink takes m out of the recency list.
func (m *memEntry) unlink() {
	m.prev.next, m.next.prev = m.next, m.prev
}

// identity returns the job's hashed simulation identity, or its digest,
// key, when that is all that identifies it (see Job.simIdentity and
// Config.Simulate).
func (e *Engine) identity(job Job, key Digest) (id Digest, fpIdle bool) {
	if !e.injected {
		if id, fpIdle, ok := job.simIdentity(); ok {
			return id, fpIdle
		}
	}
	return key, false
}

// wrap reports a computation's error under the requesting job.
func wrap(job Job, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("engine: %s under %s: %w", job.Bench, job.Config.Name, err)
}

// acquire claims a worker slot in queue order, calling queued (when
// non-nil) once the claim is queued or granted. It reports false, holding
// no slot, when ctx is cancelled before the slot is granted.
func (e *Engine) acquire(ctx context.Context, queued func()) bool {
	e.queued.Add(1)
	w := e.slots.join()
	if queued != nil {
		queued()
	}
	select {
	case <-w.granted:
	case <-ctx.Done():
	}
	e.queued.Add(-1)
	if ctx.Err() != nil {
		// Cancelled while queued, or the grant and the cancellation
		// raced; prefer the cancellation so a cancelled sweep never
		// starts new work.
		e.slots.leave(w)
		return false
	}
	e.running.Add(1)
	return true
}

// release frees a slot claimed by acquire.
func (e *Engine) release() {
	e.running.Add(-1)
	e.slots.release()
}

// abandon unwinds an owned in-flight registration whose owner was
// cancelled before computing. The call is marked abandoned, so waiters
// sharing it retry resolution under their own contexts instead of
// inheriting the owner's cancellation.
func (e *Engine) abandon(job Job, key, id Digest, c *call, err error) (Result, error, Source) {
	c.err = err
	c.abandoned = true
	e.mu.Lock()
	delete(e.inflight, key)
	delete(e.sims, id)
	e.mu.Unlock()
	close(c.done)
	return e.cancel(job, err)
}

// persist writes a result the job took from another job's run under the
// job's own fingerprint, unless the store already holds a valid entry
// there: a torn or empty one, which Has would report, is rewritten.
// The write takes a worker slot, as a simulated result's write does; a
// job cancelled before its slot is granted skips it and reports false.
func (e *Engine) persist(ctx context.Context, job Job, r Result) bool {
	if e.store == nil {
		return true
	}
	fp, ok := job.Fingerprint()
	if !ok {
		return true
	}
	if _, ok := e.store.Get(fp, job); ok {
		return true
	}
	if !e.acquire(ctx, nil) {
		return false
	}
	if err := e.store.Put(fp, job, r); err != nil {
		e.bump(func(s *Stats) { s.DiskErrors++ })
	}
	e.release()
	return true
}

// compute resolves a job the expensive way: persistent store, then the
// simulator (persisting the fresh result best-effort).
func (e *Engine) compute(job Job) (Result, error, Source) {
	fp, addressable := "", false
	if e.store != nil {
		fp, addressable = job.Fingerprint()
	}
	if addressable {
		if r, ok := e.store.Get(fp, job); ok {
			e.bump(func(s *Stats) { s.DiskHits++ })
			return r, nil, SourceDisk
		}
	}
	start := time.Time{}
	if e.simDur != nil {
		start = time.Now()
	}
	r, err := e.sim(job)
	if e.simDur != nil {
		e.simDur.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return Result{}, err, SourceSimulated
	}
	e.bump(func(s *Stats) { s.Simulated++ })
	if addressable {
		if perr := e.store.Put(fp, job, r); perr != nil {
			e.bump(func(s *Stats) { s.DiskErrors++ })
		}
	}
	return r, nil, SourceSimulated
}

// finish accounts a resolved job and reports progress. The increment and
// the callback happen under one lock so Done is monotonic across events.
func (e *Engine) finish(job Job, src Source) {
	if e.progress == nil {
		e.resolved.Add(1)
		return
	}
	e.progMu.Lock()
	defer e.progMu.Unlock()
	e.progress(Progress{
		Done:   int(e.resolved.Add(1)),
		Total:  int(e.total.Load()),
		Job:    job,
		Source: src,
	})
}

// ResultAll resolves a batch of jobs concurrently (bounded by the worker
// pool) and returns their results in input order. Duplicate jobs in the
// batch are simulated once. On failure the first error in input order is
// returned alongside the partial results.
func (e *Engine) ResultAll(jobs []Job) ([]Result, error) {
	return e.ResultAllCtx(context.Background(), jobs)
}

// ResultAllCtx is ResultAll honoring ctx: once ctx is cancelled, jobs
// that have not claimed a worker slot resolve promptly to ctx.Err()
// while in-flight jobs finish (and persist), and the first error in input
// order — a context error, under cancellation — is returned alongside
// the partial results.
func (e *Engine) ResultAllCtx(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	e.ResultStream(ctx, jobs, func(i int, r Result, err error, _ Source) {
		results[i], errs[i] = r, err
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// ResultStream resolves a batch of jobs concurrently (bounded by the
// worker pool), delivering each result through emit as it resolves — in
// completion order, not input order; i is the job's input index. Emit
// invocations are serialized, so callers may update shared state without
// locking. ResultStream returns once every job has been emitted, with
// the jobs' digests in input order, which Manifest takes.
//
// A job whose own key is in memory resolves and is emitted on the
// caller's goroutine, before the next job is looked at, so a batch of
// memory hits is delivered whole before ResultStream returns, with no
// goroutine, channel or closure per job. Every other job resolves on a
// goroutine of its own. Those jobs queue for worker slots in input
// order, so a consumer reassembling input order receives its first
// result as early as the pool allows. Duplicate jobs in the call resolve
// through single-flight deduplication, exactly as concurrent identical
// submissions do.
//
// Cancellation semantics match ResultAllCtx: after ctx is cancelled,
// unscheduled jobs emit promptly with ctx.Err() and SourceCanceled while
// in-flight jobs finish and persist, so the store stays consistent and a
// warm rerun completes only the remainder.
func (e *Engine) ResultStream(ctx context.Context, jobs []Job, emit func(i int, r Result, err error, src Source)) []Digest {
	keys := make([]Digest, len(jobs))
	var wg sync.WaitGroup
	var emitMu sync.Mutex
	for i := range jobs {
		key := jobs[i].digest()
		keys[i] = key
		if r, ok := e.memoryHit(ctx, jobs[i], key); ok {
			if emit != nil {
				emitMu.Lock()
				emit(i, r, nil, SourceMemory)
				emitMu.Unlock()
			}
			continue
		}
		wg.Add(1)
		queued := make(chan struct{})
		go func() {
			defer wg.Done()
			r, err, src := e.resolve(ctx, jobs[i], key, func() { close(queued) })
			if emit != nil {
				emitMu.Lock()
				emit(i, r, err, src)
				emitMu.Unlock()
			}
		}()
		<-queued
	}
	wg.Wait()
	return keys
}

// BatchGroups always returns 0.
//
// Deprecated: BatchGroups exists only because the benchmark harness still
// reads it; it goes away when the benchmark is next redefined.
func (e *Engine) BatchGroups() int64 { return 0 }
