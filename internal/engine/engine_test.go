package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distiq/internal/core"
)

func quickJob(bench string, cfg core.Config) Job {
	return Job{Bench: bench, Config: cfg, Opt: Options{Warmup: 1000, Instructions: 4000}}
}

// countingSim returns a stub simulate function that counts invocations per
// key and produces a distinguishable deterministic result.
func countingSim(calls *sync.Map, delay time.Duration) func(Job) (Result, error) {
	return func(j Job) (Result, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		c, _ := calls.LoadOrStore(j.Key(), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		var r Result
		r.Benchmark = j.Bench
		r.Config = j.Config.Name
		r.Insts = j.Opt.Instructions
		r.Cycles = j.Opt.Instructions / 2
		r.IQEnergy = float64(len(j.Bench) * 1000)
		return r, nil
	}
}

func totalCalls(calls *sync.Map) int64 {
	var n int64
	calls.Range(func(_, v any) bool { n += v.(*atomic.Int64).Load(); return true })
	return n
}

func TestSingleFlightDedup(t *testing.T) {
	var calls sync.Map
	e := New(Config{Workers: 8, Simulate: countingSim(&calls, time.Millisecond)})
	job := quickJob("swim", core.Baseline64())

	const goroutines = 50
	var wg sync.WaitGroup
	results := make([]Result, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Result(job)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("result %d differs: %+v vs %+v", i, results[i], results[0])
		}
	}
	if n := totalCalls(&calls); n != 1 {
		t.Fatalf("simulated %d times, want 1", n)
	}
	st := e.Stats()
	if st.Requested != goroutines || st.Simulated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Shared+st.MemoryHits != goroutines-1 {
		t.Fatalf("dedup accounting wrong: %+v", st)
	}
}

func TestBatchOrderAndDedup(t *testing.T) {
	var calls sync.Map
	e := New(Config{Workers: 4, Simulate: countingSim(&calls, 0)})
	benches := []string{"swim", "gzip", "mcf", "swim", "gzip", "swim"}
	jobs := make([]Job, len(benches))
	for i, b := range benches {
		jobs[i] = quickJob(b, core.MBDistr())
	}
	results, err := e.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Benchmark != benches[i] {
			t.Fatalf("result %d is %s, want %s", i, r.Benchmark, benches[i])
		}
	}
	if n := totalCalls(&calls); n != 3 {
		t.Fatalf("simulated %d unique jobs, want 3", n)
	}
}

func TestWorkerPoolBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	sim := func(j Job) (Result, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		var r Result
		r.Benchmark = j.Bench
		return r, nil
	}
	e := New(Config{Workers: workers, Simulate: sim})
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = quickJob(fmt.Sprintf("bench%d", i), core.Baseline64())
	}
	if _, err := e.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool of %d", p, workers)
	}
}

func TestErrorsSharedNotCached(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	sim := func(j Job) (Result, error) {
		calls.Add(1)
		return Result{}, boom
	}
	e := New(Config{Workers: 2, Simulate: sim})
	job := quickJob("swim", core.Baseline64())
	if _, err := e.Result(job); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Errors are not cached: a later request retries.
	if _, err := e.Result(job); !errors.Is(err, boom) {
		t.Fatalf("retry err = %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("simulate called %d times, want 2 (errors must not be cached)", calls.Load())
	}
}

// TestProgressReporting: Config.Progress fires once per resolved job,
// Done rises by one per event and reaches Total when the batch is done,
// a duplicate job reports a memory or shared source, and a second pass
// over the same jobs is all memory hits.
func TestProgressReporting(t *testing.T) {
	var calls sync.Map
	var events []Progress
	e := New(Config{
		Workers:  4,
		Simulate: countingSim(&calls, 0),
		Progress: func(p Progress) { events = append(events, p) },
	})
	jobs := []Job{
		quickJob("swim", core.Baseline64()),
		quickJob("gzip", core.Baseline64()),
		quickJob("swim", core.Baseline64()), // duplicate: memory or shared
	}
	if _, err := e.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("%d progress events, want %d", len(events), len(jobs))
	}
	bySource := map[Source]int{}
	for i, p := range events {
		if p.Done != i+1 {
			t.Fatalf("event %d Done = %d, want %d (monotonic)", i, p.Done, i+1)
		}
		bySource[p.Source]++
	}
	last := events[len(events)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final progress %d/%d, want %d/%d", last.Done, last.Total, len(jobs), len(jobs))
	}
	if bySource[SourceSimulated] != 2 || bySource[SourceMemory]+bySource[SourceShared] != 1 {
		t.Fatalf("sources = %v, want 2 simulated and 1 memory/shared for the duplicate", bySource)
	}

	events = nil
	if _, err := e.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("second pass: %d progress events, want %d", len(events), len(jobs))
	}
	for i, p := range events {
		if p.Source != SourceMemory {
			t.Fatalf("second pass event %d source = %s, want %s", i, p.Source, SourceMemory)
		}
	}
	if n := totalCalls(&calls); n != 2 {
		t.Fatalf("simulator ran %d times, want 2", n)
	}
}

func TestRealSimulationThroughEngine(t *testing.T) {
	e := New(Config{Workers: 2})
	r, err := e.Result(quickJob("gzip", core.MBDistr()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "gzip" || r.Config != "MB_distr" {
		t.Fatalf("identity wrong: %+v", r.Run)
	}
	if r.IPC() <= 0.1 || r.IPC() > 8 || r.IQEnergy <= 0 {
		t.Fatalf("implausible result: IPC %v, energy %v", r.IPC(), r.IQEnergy)
	}
	// Memoized second request is bit-identical.
	r2, err := e.Result(quickJob("gzip", core.MBDistr()))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != r.Cycles || r2.IQEnergy != r.IQEnergy {
		t.Fatal("memoized result differs")
	}
	if st := e.Stats(); st.Simulated != 1 || st.MemoryHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if w := New(Config{}).Workers(); w < 1 {
		t.Fatalf("workers = %d", w)
	}
	if w := New(Config{Workers: 7}).Workers(); w != 7 {
		t.Fatalf("workers = %d, want 7", w)
	}
}

// TestConcurrentSweepsRace: concurrent sweeps of the real simulator
// sharing one engine — single-flight dedup stays exact (each distinct
// simulation runs once across all sweeps), every sweep sees identical
// results, and the resolution identity (enqueued == completed) holds
// once idle. Run under -race in CI.
func TestConcurrentSweepsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Options{Warmup: 300, Instructions: 1200}
	var jobs []Job
	for _, bench := range []string{"swim", "gcc"} {
		for _, cfg := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
			jobs = append(jobs, Job{Bench: bench, Config: cfg, Opt: opt})
		}
	}
	e := New(Config{Workers: 4})

	const sweeps = 6
	results := make([][]Result, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for s := 0; s < sweeps; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = e.ResultAll(jobs)
		}(s)
	}
	wg.Wait()
	for s := 0; s < sweeps; s++ {
		if errs[s] != nil {
			t.Fatalf("sweep %d: %v", s, errs[s])
		}
		if !reflect.DeepEqual(results[s], results[0]) {
			t.Errorf("sweep %d results differ", s)
		}
	}
	// gcc has no FP operation, so its IF_distr and MB_distr jobs are one
	// simulation: the six jobs hold five distinct simulations.
	const distinct = 5
	st := e.Stats()
	if st.Simulated != distinct {
		t.Errorf("Simulated = %d, want %d (single-flight dedup across sweeps)", st.Simulated, distinct)
	}
	if want := int64(sweeps * len(jobs)); st.Requested != want {
		t.Errorf("Requested = %d, want %d", st.Requested, want)
	}
	if sum := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled; sum != st.Requested {
		t.Errorf("resolution identity broken: %d resolved of %d requested (%+v)", sum, st.Requested, st)
	}
}

// TestResultStreamClaimsSlotsInInputOrder: a batch call queues its jobs
// for worker slots in input order, so an in-order consumer (a grid-order
// sweep stream) gets its first point after one simulation, not after
// whichever jobs the goroutine scheduler happened to start first.
func TestResultStreamClaimsSlotsInInputOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	e := New(Config{Workers: 1, Simulate: func(j Job) (Result, error) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		order = append(order, int(j.Opt.Instructions))
		mu.Unlock()
		return Result{}, nil
	}})
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Bench: "swim", Config: core.MBDistr(), Opt: Options{Instructions: uint64(i)}}
	}
	if _, err := e.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("simulation order %v, want input order", order)
		}
	}
}

// TestResultStreamMemoryHitsInline: a batch's jobs whose own keys are in
// memory resolve on the caller's goroutine, serialized with the emits of
// the jobs that wait on goroutines of their own, with the accounting and
// progress of any memory hit. A batch of memory hits allocates no more
// than the digests it returns and the call's wait group and emit lock:
// no key string, goroutine, channel or closure per job. Run
// under -race in CI (the cancellation gate), where an inline emit racing
// a goroutine's would be reported.
func TestResultStreamMemoryHitsInline(t *testing.T) {
	// Progress events are counted, and Done checked to rise by one each
	// time, without allocating.
	var calls sync.Map
	events, lastDone, monotonic := 0, 0, true
	e := New(Config{
		Workers:  2,
		Simulate: countingSim(&calls, 0),
		Progress: func(p Progress) {
			monotonic = monotonic && p.Done == lastDone+1
			lastDone = p.Done
			events++
		},
	})
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = quickJob("swim", core.MBDistr())
		jobs[i].Opt.Instructions += uint64(i)
	}
	warm := jobs[:8]
	if _, err := e.ResultAll(warm); err != nil {
		t.Fatal(err)
	}

	// Interleave the warm jobs with cold ones; emit keeps unguarded state.
	var mixed []Job
	for i := range warm {
		mixed = append(mixed, warm[i], jobs[8+i])
	}
	before := e.Stats()
	events = 0
	srcs := make([]Source, len(mixed))
	emitted := 0
	e.ResultStream(context.Background(), mixed, func(i int, r Result, err error, src Source) {
		if err != nil || r.Insts != mixed[i].Opt.Instructions {
			t.Errorf("job %d: result %d insts, err %v", i, r.Insts, err)
		}
		srcs[i] = src
		emitted++
	})
	if emitted != len(mixed) {
		t.Fatalf("emitted %d of %d jobs", emitted, len(mixed))
	}
	for i, src := range srcs {
		if want := []Source{SourceMemory, SourceSimulated}[i%2]; src != want {
			t.Errorf("job %d source %s, want %s", i, src, want)
		}
	}
	st := e.Stats()
	if st.Requested-before.Requested != int64(len(mixed)) || st.MemoryHits-before.MemoryHits != int64(len(warm)) ||
		st.Simulated-before.Simulated != int64(len(warm)) {
		t.Errorf("stats %+v after %+v, want %d requests: %d memory hits, %d simulated", st, before, len(mixed), len(warm), len(warm))
	}
	if events != len(mixed) || !monotonic {
		t.Fatalf("%d progress events (Done monotonic: %v), want %d", events, monotonic, len(mixed))
	}

	// An all-hit batch: delivered before ResultStream returns, allocating
	// only the digests it returns beside the call's wait group and emit
	// lock. No job renders a key string.
	got := make([]Source, len(jobs))
	emit := func(i int, _ Result, _ error, src Source) { got[i] = src }
	allocs := testing.AllocsPerRun(50, func() {
		clear(got)
		e.ResultStream(context.Background(), jobs, emit)
	})
	for i, src := range got {
		if src != SourceMemory {
			t.Fatalf("warm job %d source %q, want %s", i, src, SourceMemory)
		}
	}
	if allocs > 3 {
		t.Errorf("a batch of %d memory hits allocates %.0f times, want at most 3", len(jobs), allocs)
	}
}
