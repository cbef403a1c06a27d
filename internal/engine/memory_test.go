package engine

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"distiq/internal/core"
)

// tinyJobs returns n distinct jobs: swim on the baseline machine,
// measured for 1 to n instructions.
func tinyJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Bench: "swim", Config: core.Baseline64(), Opt: Options{Instructions: uint64(i + 1)}}
	}
	return jobs
}

// checkIndex fails t unless the engine, idle, holds at most memoryCap
// results and every identity-index entry names a job in memory.
func checkIndex(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.memory) > memoryCap || len(e.sims) > memoryCap {
		t.Errorf("%d memory and %d index entries, cap %d", len(e.memory), len(e.sims), memoryCap)
	}
	for _, key := range e.sims {
		if _, ok := e.memory[key]; !ok {
			t.Errorf("the identity index names %x, which is not in memory", key)
		}
	}
}

// TestMemoryBounded: the engine keeps at most memoryCap results and as
// many identity-index entries. A job dropped from memory resolves again
// from the store, with no new simulation, when one backs the engine, and
// simulates again when none does, to the same result either way; a job
// hit between inserts stays in memory however many follow.
func TestMemoryBounded(t *testing.T) {
	jobs := tinyJobs(memoryCap + 100)
	hot := quickJob("gcc", core.Baseline64())
	for _, store := range []ResultStore{NewMemStore(), nil} {
		var calls sync.Map
		e := New(Config{Workers: 2, Store: store, Simulate: countingSim(&calls, 0)})
		if _, err := e.Result(hot); err != nil {
			t.Fatal(err)
		}
		first := make([]Result, len(jobs))
		for i, job := range jobs {
			r, err := e.Result(job)
			if err != nil {
				t.Fatal(err)
			}
			first[i] = r
			if _, err := e.Result(hot); err != nil {
				t.Fatal(err)
			}
			if len(e.memory) > memoryCap || len(e.sims) > memoryCap {
				t.Fatalf("after %d jobs: %d memory and %d index entries, cap %d",
					i+1, len(e.memory), len(e.sims), memoryCap)
			}
		}
		checkIndex(t, e)
		if st := e.Stats(); st.Simulated != int64(len(jobs))+1 || st.MemoryHits != int64(len(jobs)) {
			t.Errorf("stats %+v, want every job simulated once and every repeat of the hot job a memory hit", st)
		}

		before := e.Stats()
		for i, job := range jobs[:100] {
			r, err := e.Result(job)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, first[i]) {
				t.Errorf("job %d: result after eviction differs from the first", i)
			}
		}
		st := e.Stats()
		simulated, disk := st.Simulated-before.Simulated, st.DiskHits-before.DiskHits
		if store != nil && (simulated != 0 || disk != 100 || totalCalls(&calls) != int64(len(jobs))+1) {
			t.Errorf("with a store: %d simulated and %d disk hits (%d simulator calls), want 0 and 100",
				simulated, disk, totalCalls(&calls))
		}
		if store == nil && (simulated != 100 || disk != 0 || totalCalls(&calls) != int64(len(jobs))+101) {
			t.Errorf("without a store: %d simulated and %d disk hits (%d simulator calls), want 100 and 0",
				simulated, disk, totalCalls(&calls))
		}
		if st.MemoryHits != before.MemoryHits {
			t.Errorf("%d evicted jobs counted as memory hits", st.MemoryHits-before.MemoryHits)
		}
		checkIndex(t, e)
	}
}

// TestMemoryBoundedRace: goroutines sweep overlapping job sets, together
// past the cap, on one engine over a store, and build each batch's
// manifest. Every job gets its own result and simulates exactly once
// (a dropped job comes back from the store), every manifest equals
// BuildManifest's, and once idle the memory and the identity index stay
// within the cap and the resolution identity holds. Run under -race in
// CI (the cancellation gate).
func TestMemoryBoundedRace(t *testing.T) {
	jobs := tinyJobs(memoryCap + 300)
	var calls sync.Map
	e := New(Config{Workers: 2, Store: NewMemStore(), Simulate: countingSim(&calls, 0)})
	const goroutines, batch = 4, 128
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			set := jobs[g*100 : g*100+memoryCap]
			for lo := 0; lo < len(set); lo += batch {
				sub := set[lo:min(lo+batch, len(set))]
				if g%2 == 1 { // odd sweepers walk the set backwards
					sub = set[len(set)-min(lo+batch, len(set)) : len(set)-lo]
				}
				results, err := e.ResultAll(sub)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range results {
					if r.Insts != sub[i].Opt.Instructions {
						t.Errorf("job %d got the result of a %d-instruction job", sub[i].Opt.Instructions, r.Insts)
					}
				}
				got, err := e.Manifest("sweep", sub, digests(sub), results)
				if err != nil {
					t.Error(err)
					return
				}
				if want, _ := BuildManifest("sweep", sub, results); !reflect.DeepEqual(got, want) {
					t.Errorf("sweeper %d: manifest differs from BuildManifest's", g)
				}
			}
		}(g)
	}
	wg.Wait()
	checkIndex(t, e)
	calls.Range(func(key, n any) bool {
		if n := n.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("%s simulated %d times, want once", key, n)
		}
		return true
	})
	st := e.Stats()
	if sum := st.Simulated + st.MemoryHits + st.DiskHits + st.Shared + st.Canceled; sum != st.Requested {
		t.Errorf("resolution identity broken: %+v", st)
	}
	if st.Simulated != int64(len(jobs)) {
		t.Errorf("Simulated = %d, want %d", st.Simulated, len(jobs))
	}
}

// liveHeap returns the bytes of live heap once two collections have run
// (the second frees what the first moved to sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSimulateRetainsNoTrace: simulations keep no trace state once they
// return, since each job fetches from a generator of its own. 600 gcc
// jobs on fresh seeds leave almost no live heap behind. A trace.Cache
// would record one 8,192-instruction chunk per job, more than
// trace.DefaultCacheCap holds in all, so a path that kept one would fill
// it with these jobs' streams whatever earlier tests had left in it.
func TestSimulateRetainsNoTrace(t *testing.T) {
	const jobs, limit = 600, 1 << 20
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		j := Job{Bench: "gcc", Config: core.Baseline64(), Opt: Options{Instructions: 500}, Seed: 1<<40 + uint64(i)}
		if _, err := Simulate(j); err != nil {
			t.Fatal(err)
		}
	}
	if after := liveHeap(); after > before+limit {
		t.Errorf("%d simulations left %.2f MB more live heap, want under %.2f MB",
			jobs, float64(after-before)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestMemoryFootprint: a full memory of distinct, real results retains
// at most footprintLimit bytes of live heap per entry. The results are
// short simulations (10 + 50 instructions) of two SPECFP and two SPECINT
// benchmarks under the five organizations of the benchmark's fp-solo
// workload, over as many seeds as memoryCap needs; on the integer codes
// IF_distr and MB_distr share a run and keep an entry each. The jobs
// resolve one at a time on the test's goroutine, so no goroutine the
// engine starts and the runtime keeps for reuse counts as the memory's,
// and three collections run before each reading, so the arrays released
// pipelines leave in sync.Pool caches are gone.
func TestMemoryFootprint(t *testing.T) {
	const footprintLimit = 1000
	configs := []core.Config{core.Baseline64(), core.AdaptiveBaseline64(), core.IFDistr(),
		core.LatFIFOCfg(8, 8, 8, 16), core.MBDistr()}
	var jobs []Job
	for seed := uint64(1); len(jobs) < memoryCap; seed++ {
		for _, bench := range []string{"swim", "gcc", "art", "mcf"} {
			for _, cfg := range configs {
				jobs = append(jobs, Job{Bench: bench, Config: cfg, Opt: Options{Warmup: 10, Instructions: 50}, Seed: seed})
			}
		}
	}
	jobs = jobs[:memoryCap]
	gc := func() uint64 {
		runtime.GC()
		return liveHeap()
	}
	before := gc()
	e := New(Config{Workers: 2})
	for _, job := range jobs {
		if _, err := e.Result(job); err != nil {
			t.Fatal(err)
		}
	}
	after := gc()
	if n := len(e.memory); n != memoryCap {
		t.Fatalf("%d results in memory, want %d", n, memoryCap)
	}
	per := float64(after-before) / memoryCap
	t.Logf("%d results retain %.2f MiB, %.0f B each", memoryCap, float64(after-before)/(1<<20), per)
	if per > footprintLimit {
		t.Errorf("a memory entry retains %.0f B, want at most %d", per, footprintLimit)
	}
	runtime.KeepAlive(jobs)
	runtime.KeepAlive(e)
}
