package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distiq/internal/core"
	"distiq/internal/trace"
)

// distr returns cfg with distributed functional units under a new name.
func distr(cfg core.Config, name string) core.Config {
	cfg.Name, cfg.DistributedFU = name, true
	return cfg
}

// equalIntSides lists groups of configurations whose integer sides (and
// functional-unit wiring) match, so on a program with no FP-domain
// instruction each group is one machine.
func equalIntSides() [][]core.Config {
	camAdaptive := core.Baseline64()
	camAdaptive.Name = "CAM64_AdaptiveCAM64"
	camAdaptive.FP.Kind = core.KindAdaptiveCAM
	return [][]core.Config{
		{
			core.IFDistr(), core.MBDistr(),
			distr(core.MixBUFFCfg(8, 8, 8, 16, 2), "MixBUFF_8x8_8x16_distr"),
			distr(core.LatFIFOCfg(8, 8, 8, 16), "LatFIFO_8x8_8x16_distr"),
			distr(core.PreSchedCfg(8, 8, 112, 16), "PreSched_8x8_112+16_distr"),
		},
		{core.IssueFIFOCfg(8, 8, 4, 16), core.LatFIFOCfg(8, 8, 8, 16), core.MixBUFFCfg(8, 8, 8, 8, 0)},
		{core.Baseline64(), camAdaptive},
	}
}

// oracleJobs is every group configuration of equalIntSides at ROB 64 and
// 256 on one benchmark.
func oracleJobs(bench string) []Job {
	var jobs []Job
	for _, rob := range []int{64, 256} {
		for _, group := range equalIntSides() {
			for _, cfg := range group {
				jobs = append(jobs, Job{
					Bench: bench, Config: cfg, Machine: &Machine{ROBSize: rob},
					Opt: Options{Warmup: 1000, Instructions: 4000},
				})
			}
		}
	}
	return jobs
}

// uncachedEntry is the store entry of simulating job without the engine.
func uncachedEntry(t *testing.T, job Job) []byte {
	t.Helper()
	r, err := Simulate(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := entryBytes(job, r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resolveAll resolves jobs on e and returns each job's entry bytes and
// resolution source.
func resolveAll(t *testing.T, e *Engine, jobs []Job) ([][]byte, []Source) {
	t.Helper()
	entries, srcs := make([][]byte, len(jobs)), make([]Source, len(jobs))
	e.ResultStream(context.Background(), jobs, func(i int, r Result, err error, src Source) {
		if err != nil {
			t.Errorf("%s under %s: %v", jobs[i].Bench, jobs[i].Config.Name, err)
			return
		}
		entries[i], err = entryBytes(jobs[i], r)
		if err != nil {
			t.Error(err)
		}
		srcs[i] = src
	})
	return entries, srcs
}

// TestDifferentialOracleIntegerSides is the differential oracle for
// configurations whose integer sides match: on every registered model
// with no FP-domain instruction, each job of a group resolves through the
// engine — most by taking another group member's run — to exactly the
// entry bytes of simulating that job on its own. eon is a SPECINT model
// with FP chains, so every eon job must simulate: the rule keys on the
// program, not the suite.
func TestDifferentialOracleIntegerSides(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var free []string
	for _, b := range trace.AllBenchmarks() {
		if !trace.MustByName(b).HasFPOps() {
			free = append(free, b)
		}
	}
	if len(free) != 11 {
		t.Fatalf("%d FP-free models %v, want the 11 SPECINT models other than eon", len(free), free)
	}
	groups := len(equalIntSides())
	for _, bench := range append(free, "eon") {
		jobs := oracleJobs(bench)
		e := New(Config{Workers: 2})
		got, srcs := resolveAll(t, e, jobs)
		for i, job := range jobs {
			if want := uncachedEntry(t, job); !bytes.Equal(got[i], want) {
				t.Errorf("%s under %s (ROB %d): engine entry differs from the uncached simulation",
					bench, job.Config.Name, job.Machine.ROBSize)
			}
			if bench == "eon" && srcs[i] != SourceSimulated {
				t.Errorf("eon under %s (ROB %d) resolved from %s, want a simulation",
					job.Config.Name, job.Machine.ROBSize, srcs[i])
			}
		}
		st := e.Stats()
		want := int64(2 * groups) // one simulation per group and ROB size
		if bench == "eon" {
			want = int64(len(jobs))
		}
		if st.Simulated != want || st.Simulated+st.MemoryHits+st.Shared != int64(len(jobs)) {
			t.Errorf("%s: %+v, want %d simulations of %d jobs", bench, st, want, len(jobs))
		}
	}
}

// TestSharedRunsAccountingAndPersistence: {IQ_64_64, IF_distr, MB_distr}
// × {gcc, swim} on an fs: store holds five distinct simulations, since
// gcc's MB_distr takes IF_distr's run. Every job still persists under its
// own fingerprint with the bytes its own simulation would write, a fresh
// engine over the store simulates nothing, an engine given
// Config.Simulate calls it once per job, and an invalid FP side is never
// shared.
func TestSharedRunsAccountingAndPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var jobs []Job
	for _, bench := range []string{"gcc", "swim"} {
		for _, cfg := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
			jobs = append(jobs, quickJob(bench, cfg))
		}
	}
	dir := t.TempDir()
	store := NewStore(dir)

	e := New(Config{Workers: 2, Store: store})
	if _, err := e.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Simulated != 5 || st.MemoryHits+st.Shared != 1 || st.DiskErrors != 0 {
		t.Errorf("stats = %+v, want Simulated=5 MemoryHits+Shared=1", st)
	}
	if sum := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled; sum != st.Requested || st.Requested != int64(len(jobs)) {
		t.Errorf("resolution identity broken: %+v", st)
	}
	for _, job := range jobs {
		fp, _ := job.Fingerprint()
		raw, err := store.Raw(fp)
		if err != nil {
			t.Errorf("%s under %s not persisted: %v", job.Bench, job.Config.Name, err)
			continue
		}
		if !bytes.Equal(raw, uncachedEntry(t, job)) {
			t.Errorf("%s under %s: stored entry differs from the uncached simulation", job.Bench, job.Config.Name)
		}
	}

	warm := New(Config{Workers: 2, Store: store})
	if _, err := warm.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	if wst := warm.Stats(); wst.Simulated != 0 {
		t.Errorf("fresh engine over the store simulated %d jobs: %+v", wst.Simulated, wst)
	}

	var calls atomic.Int64
	injected := New(Config{Workers: 2, Simulate: func(j Job) (Result, error) {
		calls.Add(1)
		return Simulate(j)
	}})
	if _, err := injected.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(jobs)) {
		t.Errorf("injected simulator ran %d times for %d jobs", calls.Load(), len(jobs))
	}

	bad := core.MBDistr()
	bad.Name = "MB_distr_bad_chains"
	bad.FP.Chains = bad.FP.Entries + 1
	if _, err := e.Result(quickJob("gcc", bad)); err == nil {
		t.Error("a job with an invalid FP side took its twin's run")
	}
}

// TestEquivalentJobsOwnerAbandoned: when the owner of a run is cancelled
// before it computes, a requester of an equivalent job waiting on that
// run retries, runs its own simulation and gets its own bytes.
func TestEquivalentJobsOwnerAbandoned(t *testing.T) {
	opt := Options{Warmup: 100, Instructions: 400}
	owner := Job{Bench: "gcc", Config: core.IFDistr(), Opt: opt}
	twin := Job{Bench: "gcc", Config: core.MBDistr(), Opt: opt}
	want := uncachedEntry(t, twin)

	e := New(Config{Workers: 1})
	hold := e.slots.join() // the only worker slot, until released below
	<-hold.granted

	ctx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := e.ResultCtx(ctx, owner)
		ownerErr <- err
	}()
	waitUntil(t, "the owner to queue for a slot", func() bool { return e.queued.Load() == 1 })

	routed := make(chan struct{})
	type outcome struct {
		r   Result
		err error
		src Source
	}
	twinOut := make(chan outcome, 1)
	go func() {
		r, err, src := e.resolve(context.Background(), twin, twin.Key(), func() { close(routed) })
		twinOut <- outcome{r, err, src}
	}()
	<-routed // the twin waits on the owner's run
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	waitUntil(t, "the twin to queue for a slot", func() bool { return e.queued.Load() == 1 })
	e.slots.release()

	got := <-twinOut
	if got.err != nil || got.src != SourceSimulated {
		t.Fatalf("twin: source %s, err %v; want its own simulation", got.src, got.err)
	}
	if b, _ := entryBytes(twin, got.r); !bytes.Equal(b, want) {
		t.Error("twin's result differs from its uncached simulation")
	}
	if st := e.Stats(); st.Requested != 2 || st.Simulated != 1 || st.Canceled != 1 {
		t.Errorf("stats = %+v, want Requested=2 Simulated=1 Canceled=1", st)
	}
}

// TestEquivalentJobsRace: requesters of configurations that are one
// machine on gcc race each other, random cancellations and the owner's
// completion, on an engine with a store. Exactly one simulation runs,
// every request that is not cancelled gets its own configuration's bytes
// and leaves them in the store, and the resolution identity holds once
// idle. Run under -race in CI (the cancellation gate).
func TestEquivalentJobsRace(t *testing.T) {
	opt := Options{Warmup: 100, Instructions: 400}
	var jobs []Job
	var want [][]byte
	for _, cfg := range equalIntSides()[0] {
		job := Job{Bench: "gcc", Config: cfg, Opt: opt}
		jobs = append(jobs, job)
		want = append(want, uncachedEntry(t, job))
	}
	const rounds, requesters = 8, 12
	for round := 0; round < rounds; round++ {
		store := NewMemStore()
		e := New(Config{Workers: 2, Store: store})
		var wg sync.WaitGroup
		for i := 0; i < requesters; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancellable := i%3 == 2
			if cancellable {
				go func() {
					time.Sleep(time.Duration(rand.Intn(500)) * time.Microsecond)
					cancel()
				}()
			}
			k := (i + round) % len(jobs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cancel()
				r, err := e.ResultCtx(ctx, jobs[k])
				if err != nil {
					if !cancellable || !errors.Is(err, context.Canceled) {
						t.Errorf("%s: %v", jobs[k].Config.Name, err)
					}
					return
				}
				if b, _ := entryBytes(jobs[k], r); !bytes.Equal(b, want[k]) {
					t.Errorf("%s: result differs from its uncached simulation", jobs[k].Config.Name)
				}
				if cancellable {
					return // its store write may have been skipped
				}
				fp, _ := jobs[k].Fingerprint()
				if raw, err := store.Raw(fp); err != nil || !bytes.Equal(raw, want[k]) {
					t.Errorf("%s: store entry missing or wrong (%v)", jobs[k].Config.Name, err)
				}
			}()
		}
		wg.Wait()
		st := e.Stats()
		if st.Simulated != 1 {
			t.Errorf("round %d: Simulated = %d, want 1 (%+v)", round, st.Simulated, st)
		}
		if sum := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled; sum != st.Requested || st.Requested != requesters {
			t.Errorf("round %d: resolution identity broken: %+v", round, st)
		}
	}
}

// TestEquivalentJobAfterDonorEvicted: once memoryCap other jobs (stub
// runs) have pushed gcc's IF_distr run out of memory, the identity index
// no longer names it, and gcc's MB_distr, one machine with it, resolves
// on its own to exactly its own simulation's result, never to a zero one
// taken from the index. An index entry naming a key in neither memory
// nor flight, which eviction never leaves, is a miss as well.
func TestEquivalentJobAfterDonorEvicted(t *testing.T) {
	opt := Options{Warmup: 100, Instructions: 400}
	donor := Job{Bench: "gcc", Config: core.IFDistr(), Opt: opt}
	twin := Job{Bench: "gcc", Config: core.MBDistr(), Opt: opt}
	third := Job{Bench: "gcc", Config: distr(core.MixBUFFCfg(8, 8, 8, 16, 2), "MixBUFF_8x8_8x16_distr"), Opt: opt}

	e := New(Config{Workers: 2})
	e.sim = func(j Job) (Result, error) { // only gcc's runs need the simulator
		if j.Bench != donor.Bench {
			return stubResult(int(j.Opt.Instructions)), nil
		}
		return Simulate(j)
	}
	if _, err := e.Result(donor); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResultAll(tinyJobs(memoryCap)); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.memory[donor.Key()]; ok {
		t.Fatal("the donor survived memoryCap newer jobs")
	}
	checkIndex(t, e)

	for i, job := range []Job{twin, third} {
		if i == 1 {
			// Point the index at the evicted donor again.
			id, _ := e.identity(job, job.Key())
			e.mu.Lock()
			e.sims[id] = donor.Key()
			e.mu.Unlock()
		}
		before := e.Stats()
		r, err := e.Result(job)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := entryBytes(job, r); !bytes.Equal(b, uncachedEntry(t, job)) {
			t.Errorf("%s: result differs from its uncached simulation", job.Config.Name)
		}
		st := e.Stats()
		if st.Simulated+st.DiskHits != before.Simulated+before.DiskHits+1 || st.MemoryHits != before.MemoryHits || st.Shared != before.Shared {
			t.Errorf("%s: stats %+v after %+v, want one simulation or disk hit", job.Config.Name, st, before)
		}
	}
	checkIndex(t, e)
}

// countingStore counts a store's Has and Put calls.
type countingStore struct {
	ResultStore
	has, put atomic.Int64
}

func (s *countingStore) Has(fp string) bool {
	s.has.Add(1)
	return s.ResultStore.Has(fp)
}

func (s *countingStore) Put(fp string, job Job, r Result) error {
	s.put.Add(1)
	return s.ResultStore.Put(fp, job, r)
}

// countingFS returns a counting on-disk store in a temporary directory.
func countingFS(t *testing.T) *countingStore {
	t.Helper()
	return &countingStore{ResultStore: NewStore(t.TempDir())}
}

// TestAdaptedResultMemoized: a job that took an equivalent job's run
// keeps the adapted result under its own key, so resolving it again is
// one memory hit that neither re-adapts nor touches the store.
func TestAdaptedResultMemoized(t *testing.T) {
	store := countingFS(t)
	e := New(Config{Workers: 1, Store: store})
	if _, err := e.Result(quickJob("gcc", core.IFDistr())); err != nil {
		t.Fatal(err)
	}
	twin := quickJob("gcc", core.MBDistr())
	first, err := e.Result(twin)
	if err != nil {
		t.Fatal(err)
	}
	before, has, put := e.Stats(), store.has.Load(), store.put.Load()
	second, err := e.Result(twin)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if store.has.Load() != has || store.put.Load() != put {
		t.Errorf("repeat resolution made %d Has and %d Put calls, want none",
			store.has.Load()-has, store.put.Load()-put)
	}
	if after.MemoryHits-before.MemoryHits != 1 || after.Simulated != before.Simulated {
		t.Errorf("stats %+v after %+v, want exactly one more memory hit", after, before)
	}
	a, _ := entryBytes(twin, first)
	b, _ := entryBytes(twin, second)
	if !bytes.Equal(a, b) {
		t.Error("the memoized result differs from the adapted one")
	}
}

// TestAdaptedResultCancelledNotMemoized: a requester cancelled while
// waiting for the slot its write needs keeps no memo, so the next
// resolution of the job still writes the job's entry.
func TestAdaptedResultCancelledNotMemoized(t *testing.T) {
	store := countingFS(t)
	e := New(Config{Workers: 1, Store: store})
	if _, err := e.Result(quickJob("gcc", core.IFDistr())); err != nil {
		t.Fatal(err)
	}
	twin := quickJob("gcc", core.MBDistr())
	fp, _ := twin.Fingerprint()

	e.acquire(context.Background(), nil) // hold the only worker slot
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		_, err := e.ResultCtx(ctx, twin)
		done <- err
	}()
	for e.queued.Load() == 0 { // the twin's write waits for the slot
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled requester of an adapted result: %v", err)
	}
	e.release()
	if store.Has(fp) {
		t.Fatal("a requester cancelled before its slot wrote the entry")
	}
	put := store.put.Load()
	if _, err := e.Result(twin); err != nil {
		t.Fatal(err)
	}
	if store.put.Load() != put+1 || !store.ResultStore.Has(fp) {
		t.Errorf("the next resolution made %d Put calls and left the entry absent", store.put.Load()-put)
	}
}

// TestAdaptedResultRewritesTornEntry: an empty entry under the
// fingerprint of a job that takes an equivalent job's run, as a system
// crash can leave one since nothing is synced, is rewritten, so the
// sweep's manifest verifies against the store and a second engine reads
// the entry back from disk.
func TestAdaptedResultRewritesTornEntry(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(dir)
	jobs := []Job{quickJob("gcc", core.IFDistr()), quickJob("gcc", core.MBDistr())}
	fp, _ := jobs[1].Fingerprint()
	if err := store.PutRaw(fp, nil); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, Store: store})
	results, err := e.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Simulated != 1 || st.MemoryHits+st.Shared != 1 {
		t.Fatalf("stats %+v, want 1 simulated and 1 taken from its twin", st)
	}
	if _, ok := store.Get(fp, jobs[1]); !ok {
		t.Fatal("the empty entry was not rewritten")
	}
	m, err := e.Manifest("torn", jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyIn(store); err != nil {
		t.Fatalf("manifest does not verify against the store: %v", err)
	}
	fresh := New(Config{Workers: 1, Store: NewStore(dir)})
	if _, err := fresh.Result(jobs[1]); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskHits != 1 {
		t.Fatalf("second engine: %+v, want 1 disk hit", st)
	}
}
