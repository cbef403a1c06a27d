package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distiq/internal/core"
)

// cancelJobs builds n distinct, store-addressable jobs.
func cancelJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Bench:  fmt.Sprintf("bench%03d", i),
			Config: core.Baseline64(),
			Opt:    Options{Warmup: 1, Instructions: 100},
		}
	}
	return jobs
}

// slowStub returns a stub simulator that takes roughly d per job and
// counts its invocations.
func slowStub(d time.Duration, calls *atomic.Int64) func(Job) (Result, error) {
	return func(j Job) (Result, error) {
		calls.Add(1)
		time.Sleep(d)
		var r Result
		r.Benchmark = j.Bench
		r.Config = j.Config.Name
		r.Insts = j.Opt.Instructions
		r.Cycles = 42
		return r, nil
	}
}

// TestResultCtxCanceledBeforeStart: a request arriving with an already
// cancelled context never simulates and returns the context error.
func TestResultCtxCanceledBeforeStart(t *testing.T) {
	var calls atomic.Int64
	e := New(Config{Workers: 1, Simulate: slowStub(0, &calls)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ResultCtx(ctx, cancelJobs(1)[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("simulator ran %d times for a pre-cancelled request", calls.Load())
	}
	st := e.Stats()
	if st.Requested != 1 || st.Canceled != 1 {
		t.Fatalf("stats = %+v, want Requested=1 Canceled=1", st)
	}
}

// TestCancelMidSweepConsistentStats is the regression test for stats
// snapshots taken mid-cancel: a 100-point sweep is cancelled at a random
// moment while another goroutine continuously snapshots Stats and checks
// the documented identity. Run under -race in CI (the cancellation gate).
func TestCancelMidSweepConsistentStats(t *testing.T) {
	var calls atomic.Int64
	e := New(Config{Workers: 4, Simulate: slowStub(200*time.Microsecond, &calls)})
	jobs := cancelJobs(100)

	ctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	var snapshots atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			snapshots.Add(1)
			resolved := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled
			if resolved > st.Requested {
				t.Errorf("inconsistent snapshot: resolved %d > requested %d (%+v)",
					resolved, st.Requested, st)
				return
			}
			for _, c := range []int64{st.Requested, st.Simulated, st.MemoryHits,
				st.DiskHits, st.Shared, st.Canceled, st.DiskErrors} {
				if c < 0 {
					t.Errorf("negative counter in snapshot %+v", st)
					return
				}
			}
		}
	}()

	// Cancel at a random moment while the sweep is in flight.
	go func() {
		time.Sleep(time.Duration(rand.Intn(4000)) * time.Microsecond)
		cancel()
	}()

	var emitted, canceled atomic.Int64
	e.ResultStream(ctx, jobs, func(i int, r Result, err error, src Source) {
		emitted.Add(1)
		if src == SourceCanceled {
			canceled.Add(1)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("job %d: canceled source with err = %v", i, err)
			}
		}
	})
	close(stop)
	wg.Wait()

	if emitted.Load() != int64(len(jobs)) {
		t.Fatalf("emitted %d of %d jobs", emitted.Load(), len(jobs))
	}
	st := e.Stats()
	resolved := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled
	if resolved != st.Requested || st.Requested != int64(len(jobs)) {
		t.Fatalf("final stats inconsistent: %+v (resolved %d)", st, resolved)
	}
	if st.Simulated != calls.Load() {
		t.Fatalf("Simulated = %d, stub ran %d times", st.Simulated, calls.Load())
	}
	if snapshots.Load() == 0 {
		t.Fatal("watcher took no snapshots")
	}
	t.Logf("cancelled sweep: %d simulated, %d canceled, %d snapshots",
		st.Simulated, st.Canceled, snapshots.Load())
}

// TestCancelKeepsStoreConsistentWarmRerunCompletesRemainder is the
// acceptance scenario: cancelling a sweep mid-flight leaves the on-disk
// store uncorrupted, and a warm rerun simulates only the points the
// cancelled run never finished — zero re-simulations for completed ones.
func TestCancelKeepsStoreConsistentWarmRerunCompletesRemainder(t *testing.T) {
	dir := t.TempDir()
	jobs := cancelJobs(60)

	var firstCalls atomic.Int64
	first := New(Config{Workers: 4, Store: NewStore(dir), Simulate: slowStub(300*time.Microsecond, &firstCalls)})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := first.ResultAllCtx(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep err = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancelled sweep took %v; cancellation must return promptly", waited)
	}
	st1 := first.Stats()
	if st1.Canceled == 0 {
		t.Skip("cancellation landed after the sweep finished; nothing to verify")
	}
	if st1.DiskErrors != 0 {
		t.Fatalf("first run reported %d disk errors", st1.DiskErrors)
	}

	// Warm rerun through a fresh engine sharing only the on-disk store:
	// every point the first run completed must be a disk hit.
	var secondCalls atomic.Int64
	second := New(Config{Workers: 4, Store: NewStore(dir), Simulate: slowStub(0, &secondCalls)})
	results, err := second.ResultAll(jobs)
	if err != nil {
		t.Fatalf("warm rerun failed: %v", err)
	}
	for i, r := range results {
		if r.Benchmark != jobs[i].Bench {
			t.Fatalf("result %d is for %q, want %q", i, r.Benchmark, jobs[i].Bench)
		}
	}
	st2 := second.Stats()
	if got, want := st2.Simulated, int64(len(jobs))-st1.Simulated; got != want {
		t.Fatalf("warm rerun simulated %d, want %d (first run completed %d of %d)",
			got, want, st1.Simulated, len(jobs))
	}
	if st2.DiskHits != st1.Simulated {
		t.Fatalf("warm rerun disk hits = %d, want %d", st2.DiskHits, st1.Simulated)
	}
}

// TestWaiterSurvivesOwnersCancellation: when the owner of an in-flight
// call is cancelled before computing, a waiter with a live context must
// retry and obtain a real result — never inherit the owner's
// context.Canceled (two sweeps sharing one engine must not poison each
// other).
func TestWaiterSurvivesOwnersCancellation(t *testing.T) {
	gate := make(chan struct{})
	blockerIn := make(chan struct{})
	var calls atomic.Int64
	e := New(Config{Workers: 1, Simulate: func(j Job) (Result, error) {
		if j.Bench == "blocker" {
			close(blockerIn)
			<-gate
		}
		calls.Add(1)
		var r Result
		r.Benchmark = j.Bench
		return r, nil
	}})

	// Occupy the only worker slot so the owner below queues for it,
	// where cancellation abandons (not computes) its call.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if _, err := e.Result(Job{Bench: "blocker", Config: core.Baseline64(),
			Opt: Options{Warmup: 1, Instructions: 1}}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()

	<-blockerIn // the blocker holds the only slot from here on

	job := cancelJobs(1)[0]
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.ResultCtx(ownerCtx, job)
		ownerDone <- err
	}()
	// Let the owner register in-flight and queue for the slot, then
	// attach a waiter with a live context.
	time.Sleep(5 * time.Millisecond)
	waiterDone := make(chan error, 1)
	var waiterRes Result
	go func() {
		r, err := e.Result(job)
		waiterRes = r
		waiterDone <- err
	}()
	time.Sleep(5 * time.Millisecond)

	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	close(gate) // free the worker slot for the waiter's retry
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter inherited the owner's cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed after the owner's cancellation")
	}
	if waiterRes.Benchmark != job.Bench {
		t.Fatalf("waiter result = %+v, want a real result for %s", waiterRes, job.Bench)
	}
	<-blockerDone
}

// TestCancelWaiterAbandonsInflight: a requester waiting on another
// requester's in-flight job honors its own context without disturbing the
// computation it was waiting on.
func TestCancelWaiterAbandonsInflight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	e := New(Config{Workers: 2, Simulate: func(j Job) (Result, error) {
		close(started)
		<-release
		return Result{}, nil
	}})
	job := cancelJobs(1)[0]

	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.Result(job)
		ownerDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := e.ResultCtx(ctx, job)
		waiterDone <- err
	}()
	// Give the waiter a moment to join the in-flight call, then cancel it.
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}

	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner err = %v", err)
	}
	st := e.Stats()
	if st.Simulated != 1 || st.Canceled != 1 {
		t.Fatalf("stats = %+v, want Simulated=1 Canceled=1", st)
	}
}

// TestCancelMidSweepRealSimulator: cancelling a sweep of the real
// simulator mid-flight leaves the store consistent — jobs that claimed a
// worker slot finish and persist, the rest cancel — and a warm rerun on
// the same store completes exactly the remainder with zero duplicate
// simulations. gcc and mcf have no FP operation, so their MB_distr jobs
// take IF_distr's runs: the 12 jobs hold 10 distinct simulations.
func TestCancelMidSweepRealSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	opt := Options{Warmup: 300, Instructions: 1200}
	var jobs []Job
	for _, bench := range []string{"swim", "gcc", "mcf", "galgel"} {
		for _, cfg := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
			jobs = append(jobs, Job{Bench: bench, Config: cfg, Opt: opt})
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	e := New(Config{Workers: 1, Store: NewStore(dir), Progress: func(Progress) {
		// Cancel as soon as the first job lands: later jobs have not
		// claimed the single worker slot yet.
		cancel()
	}})
	_, err := e.ResultAllCtx(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.Stats()
	if st.Canceled == 0 {
		t.Fatalf("nothing cancelled: %+v", st)
	}
	if sum := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled; sum != st.Requested {
		t.Errorf("mid-cancel resolution identity broken: %+v", st)
	}

	// Warm rerun on a fresh engine over the same store: persisted jobs
	// read back as disk hits, the remainder simulates once each, and the
	// MB_distr jobs of gcc and mcf take their IF_distr twins' runs.
	const distinct, twins = 10, 2
	rerun := New(Config{Workers: 1, Store: NewStore(dir)})
	if _, err := rerun.ResultAll(jobs); err != nil {
		t.Fatal(err)
	}
	rst := rerun.Stats()
	if rst.DiskHits != st.Simulated {
		t.Errorf("rerun DiskHits = %d, want %d (everything the cancelled run persisted)", rst.DiskHits, st.Simulated)
	}
	if rst.Simulated+rst.DiskHits != distinct || rst.MemoryHits+rst.Shared != twins {
		t.Errorf("rerun did not complete exactly the remainder: %+v over %d jobs, %d distinct simulations", rst, len(jobs), distinct)
	}
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCancelRacingReleaseKeepsEverySlot: jobs cancelled while queued for a
// worker slot, at the moment the running jobs release theirs, must neither
// leak a slot nor strand one. A slot granted to a job in the instant the
// job is cancelled is passed on, so after many such races Workers() jobs
// still run at once, and never more. Run under -race in CI (the
// cancellation gate).
func TestCancelRacingReleaseKeepsEverySlot(t *testing.T) {
	const workers, rounds, queuedPerRound = 2, 200, 4
	var gate atomic.Pointer[chan struct{}] // closed to end the round's holders
	var holding, running, overruns atomic.Int64
	var barrier sync.WaitGroup
	e := New(Config{Workers: workers, Simulate: func(j Job) (Result, error) {
		if running.Add(1) > workers {
			overruns.Add(1)
		}
		defer running.Add(-1)
		switch j.Bench {
		case "hold":
			g := *gate.Load()
			holding.Add(1)
			<-g
		case "barrier":
			barrier.Done()
			barrier.Wait()
		}
		return Result{}, nil
	}})
	seq := uint64(0)
	job := func(bench string) Job {
		seq++
		return Job{Bench: bench, Config: core.Baseline64(), Opt: Options{Instructions: seq}}
	}

	for round := 0; round < rounds; round++ {
		g := make(chan struct{})
		gate.Store(&g)
		holding.Store(0)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(j Job) {
				defer wg.Done()
				if _, err := e.Result(j); err != nil {
					t.Errorf("holder: %v", err)
				}
			}(job("hold"))
		}
		waitUntil(t, "every slot held", func() bool { return holding.Load() == int64(workers) })

		cancels := make([]context.CancelFunc, queuedPerRound)
		for i := range cancels {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			wg.Add(1)
			go func(j Job) {
				defer wg.Done()
				if _, err := e.ResultCtx(ctx, j); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("queued job: %v", err)
				}
			}(job("queued"))
		}
		waitUntil(t, "jobs queued", func() bool { return e.queued.Load() == queuedPerRound })

		// Release the held slots to the queue and cancel the queue at
		// once, so grants race cancellations.
		close(g)
		for _, cancel := range cancels {
			cancel()
		}
		wg.Wait()
	}

	// Every slot is still there: Workers() jobs meet at a barrier that
	// only opens once all of them run.
	if e.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", e.Workers(), workers)
	}
	barrier.Add(workers)
	jobs := make([]Job, workers)
	for i := range jobs {
		jobs[i] = job("barrier")
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.ResultAll(jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d jobs could not run at once on %d worker slots: a slot was lost", workers, workers)
	}
	if n := overruns.Load(); n > 0 {
		t.Fatalf("%d jobs started with all %d worker slots taken", n, workers)
	}
}
