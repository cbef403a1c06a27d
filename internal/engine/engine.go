package engine

import (
	"context"
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
	// CacheDir, when non-empty, backs the in-memory cache with a
	// persistent on-disk store at that path (created if missing), so
	// results are reused across processes. It is the convenience form of
	// Store for the common filesystem backend.
	CacheDir string
	// Store, when non-nil, is the persistent result backend — any
	// ResultStore (filesystem or memory). It takes precedence over
	// CacheDir. The store is borrowed, not owned: the caller closes it
	// once the engine is done.
	Store ResultStore
	// Simulate overrides the simulation function (tests inject stubs);
	// nil selects Simulate.
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
	// Simulated jobs ran the simulator.
	Simulated int64
	// MemoryHits were served from the in-memory cache.
	MemoryHits int64
	// DiskHits were loaded from the persistent store.
	DiskHits int64
	// Shared requests waited on an identical in-flight job instead of
	// re-simulating (single-flight deduplication).
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

// call is one in-flight computation shared by all requesters of a key.
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
// single-flight deduplication, an in-memory result cache and an optional
// persistent store. All methods are safe for concurrent use.
//
// Every job-resolving method takes a context: cancellation stops
// scheduling (jobs that have not claimed a worker slot resolve promptly
// to the context's error) while jobs already simulating run to completion
// and persist to the store, so a cancelled sweep leaves the on-disk state
// consistent and a warm rerun completes only the remainder.
type Engine struct {
	sim      func(Job) (Result, error)
	progress func(Progress)
	store    ResultStore
	sem      chan struct{}

	mu       sync.Mutex
	memory   map[string]Result
	inflight map[string]*call

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

// New returns an Engine. The persistent store directory is created lazily
// on first use; an unusable CacheDir surfaces as DiskErrors, never as job
// failures.
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
		progress: cfg.Progress,
		sem:      make(chan struct{}, workers),
		memory:   make(map[string]Result),
		inflight: make(map[string]*call),
	}
	if cfg.Store != nil {
		e.store = cfg.Store
	} else if cfg.CacheDir != "" {
		e.store = NewStore(cfg.CacheDir)
	}
	if cfg.Obs != nil {
		e.instrument(cfg.Obs)
	}
	return e
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return cap(e.sem) }

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
// in-memory cache, from an identical in-flight computation, from the
// persistent store, or by simulating on a worker slot. Errors are shared
// with concurrent requesters of the same job but never cached, so a later
// request retries.
func (e *Engine) Result(job Job) (Result, error) {
	return e.ResultCtx(context.Background(), job)
}

// ResultCtx is Result honoring ctx: a request cancelled before its job
// claims a worker slot (or while waiting on another requester's in-flight
// computation) returns ctx.Err() promptly; a job already simulating runs
// to completion and its result is cached and persisted as usual.
func (e *Engine) ResultCtx(ctx context.Context, job Job) (Result, error) {
	r, err, _ := e.resolve(ctx, job, nil)
	return r, err
}

// cancel accounts one request abandoned by context cancellation.
func (e *Engine) cancel(job Job, err error) (Result, error, Source) {
	e.bump(func(s *Stats) { s.Canceled++ })
	e.finish(job, SourceCanceled)
	return Result{}, err, SourceCanceled
}

// resolve is ResultCtx plus the resolution source, so batch callers can
// account per-batch how each of their jobs was satisfied. queued, when
// non-nil, is called once, as soon as the job's route is known (cached,
// cancelled, waiting on an identical in-flight job, or about to queue for
// a worker slot); ResultStream waits for it before submitting the next
// job, so worker slots are claimed in input order.
func (e *Engine) resolve(ctx context.Context, job Job, queued func()) (Result, error, Source) {
	signal := func() {
		if queued != nil {
			queued()
			queued = nil
		}
	}
	e.bump(func(s *Stats) { s.Requested++ })
	e.total.Add(1)
	key := job.Key()

retry:
	if err := ctx.Err(); err != nil {
		signal()
		return e.cancel(job, err)
	}
	e.mu.Lock()
	if r, ok := e.memory[key]; ok {
		e.mu.Unlock()
		signal()
		e.bump(func(s *Stats) { s.MemoryHits++ })
		e.finish(job, SourceMemory)
		return r, nil, SourceMemory
	}
	if c, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		signal()
		select {
		case <-c.done:
		case <-ctx.Done():
			return e.cancel(job, ctx.Err())
		}
		if c.abandoned {
			// The owner was cancelled before computing; its context
			// error is not this requester's. Retry resolution (errors
			// are never cached, so the job is simply unowned again).
			goto retry
		}
		e.bump(func(s *Stats) { s.Shared++ })
		e.finish(job, SourceShared)
		return c.res, c.err, SourceShared
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()
	signal()

	// Claim a worker slot, abandoning the job if ctx is cancelled first
	// (cancellation stops scheduling; the slot is never taken). A job
	// whose slot is already claimed runs to completion below, so the
	// persistent store stays consistent under cancellation.
	e.queued.Add(1)
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.queued.Add(-1)
		return e.abandon(job, key, c, ctx.Err())
	}
	e.queued.Add(-1)
	if ctx.Err() != nil {
		// The slot and the cancellation raced; prefer the cancellation
		// so a cancelled sweep never starts new simulations.
		<-e.sem
		return e.abandon(job, key, c, ctx.Err())
	}
	e.running.Add(1)
	res, err, src := e.compute(job)
	e.running.Add(-1)
	<-e.sem

	if err != nil {
		err = fmt.Errorf("engine: %s under %s: %w", job.Bench, job.Config.Name, err)
	}
	c.res, c.err = res, err
	e.mu.Lock()
	if err == nil {
		e.memory[key] = res
	}
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	e.finish(job, src)
	return res, err, src
}

// abandon unwinds an owned in-flight registration whose owner was
// cancelled before computing. The call is marked abandoned, so waiters
// sharing it retry resolution under their own contexts instead of
// inheriting the owner's cancellation.
func (e *Engine) abandon(job Job, key string, c *call, err error) (Result, error, Source) {
	c.err = err
	c.abandoned = true
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	return e.cancel(job, err)
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
	return e.ResultAllCtx(context.Background(), jobs, nil)
}

// ResultAllProgress resolves a batch like ResultAll while additionally
// invoking progress once per resolved job with Done/Total scoped to this
// batch (Total is fixed at len(jobs); Done reaches Total exactly when the
// batch completes). Batch progress is independent of — and in addition
// to — the engine-wide Config.Progress callback, so each submitter of a
// shared engine can track its own batch. Invocations are serialized per
// batch.
func (e *Engine) ResultAllProgress(jobs []Job, progress func(Progress)) ([]Result, error) {
	return e.ResultAllCtx(context.Background(), jobs, progress)
}

// ResultAllCtx is ResultAllProgress honoring ctx: once ctx is cancelled,
// jobs that have not claimed a worker slot resolve promptly to ctx.Err()
// while in-flight jobs finish (and persist), and the first error in input
// order — a context error, under cancellation — is returned alongside
// the partial results.
func (e *Engine) ResultAllCtx(ctx context.Context, jobs []Job, progress func(Progress)) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	done := 0
	e.ResultStream(ctx, jobs, func(i int, r Result, err error, src Source) {
		results[i], errs[i] = r, err
		if progress != nil {
			done++
			progress(Progress{Done: done, Total: len(jobs), Job: jobs[i], Source: src})
		}
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
// locking. ResultStream returns once every job has been emitted.
// Jobs queue for worker slots in input order, so a consumer reassembling
// input order receives its first result as early as the pool allows.
// Duplicate jobs in the call resolve through single-flight
// deduplication, exactly as concurrent identical submissions do.
//
// Cancellation semantics match ResultAllCtx: after ctx is cancelled,
// unscheduled jobs emit promptly with ctx.Err() and SourceCanceled while
// in-flight jobs finish and persist, so the store stays consistent and a
// warm rerun completes only the remainder.
func (e *Engine) ResultStream(ctx context.Context, jobs []Job, emit func(i int, r Result, err error, src Source)) {
	var wg sync.WaitGroup
	var emitMu sync.Mutex
	for i := range jobs {
		wg.Add(1)
		queued := make(chan struct{})
		go func() {
			defer wg.Done()
			r, err, src := e.resolve(ctx, jobs[i], func() { close(queued) })
			if emit != nil {
				emitMu.Lock()
				emit(i, r, err, src)
				emitMu.Unlock()
			}
		}()
		<-queued
	}
	wg.Wait()
}

// BatchGroups always returns 0.
//
// Deprecated: BatchGroups exists only because the benchmark harness still
// reads it; it goes away when the benchmark is next redefined.
func (e *Engine) BatchGroups() int64 { return 0 }
