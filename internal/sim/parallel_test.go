package sim

import (
	"sync"
	"testing"

	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
)

// tinyOptions keeps the concurrency tests fast: stability of the numbers
// does not matter here, only identity across executions.
func tinyOptions() Options {
	return Options{Warmup: 500, Instructions: 3000}
}

// TestSessionConcurrentResult hammers one Session from many goroutines
// with overlapping jobs; run under -race this is the goroutine-safety
// regression test for the Session → engine delegation.
func TestSessionConcurrentResult(t *testing.T) {
	s := NewSessionClient(tinyOptions(), client.NewLocal(client.WithParallel(4)))
	benches := []string{"swim", "gzip", "mcf"}
	cfgs := []core.Config{core.Baseline64(), core.MBDistr()}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(benches)*len(cfgs))
	for g := 0; g < 4; g++ {
		for _, b := range benches {
			for _, cfg := range cfgs {
				wg.Add(1)
				go func(b string, cfg core.Config) {
					defer wg.Done()
					if _, err := s.Result(b, cfg); err != nil {
						errs <- err
					}
				}(b, cfg)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.EngineStats()
	want := int64(len(benches) * len(cfgs))
	if st.Simulated != want {
		t.Fatalf("simulated %d unique jobs, want %d (stats %+v)", st.Simulated, want, st)
	}
	if st.MemoryHits+st.Shared != 3*want {
		t.Fatalf("dedup accounting wrong: %+v", st)
	}
}

// TestParallelFigureByteIdentical is the determinism regression test: a
// figure generated by an 8-way parallel session must render byte-identical
// to the strictly serial session's table.
func TestParallelFigureByteIdentical(t *testing.T) {
	serial := NewSessionClient(tinyOptions(), client.NewLocal(client.WithParallel(1)))
	parallel := NewSessionClient(tinyOptions(), client.NewLocal(client.WithParallel(8)))

	for _, fig := range []int{8, 12} {
		ts, err := Figure(fig, serial)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := Figure(fig, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if ts.String() != tp.String() {
			t.Fatalf("figure %d differs between serial and parallel sessions:\nserial:\n%s\nparallel:\n%s",
				fig, ts, tp)
		}
		if ts.CSV() != tp.CSV() {
			t.Fatalf("figure %d CSV differs between serial and parallel sessions", fig)
		}
	}
}

// TestSessionDiskCacheWarmRerun verifies the cross-process contract: a
// second session pointed at the same cache directory performs zero new
// simulations and reproduces the first session's results exactly.
func TestSessionDiskCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	benches := []string{"swim", "gzip"}
	cfgs := []core.Config{core.Baseline64(), core.IFDistr()}

	cold := NewSessionClient(tinyOptions(), client.NewLocal(client.WithStore(engine.NewStore(dir))))
	if err := cold.Prefetch(benches, cfgs...); err != nil {
		t.Fatal(err)
	}
	if st := cold.EngineStats(); st.Simulated != 4 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}

	warm := NewSessionClient(tinyOptions(), client.NewLocal(client.WithStore(engine.NewStore(dir))))
	for _, b := range benches {
		for _, cfg := range cfgs {
			cr, err := cold.Result(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wr, err := warm.Result(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cr.Cycles != wr.Cycles || cr.IQEnergy != wr.IQEnergy {
				t.Fatalf("%s under %s: warm result differs", b, cfg.Name)
			}
		}
	}
	st := warm.EngineStats()
	if st.Simulated != 0 {
		t.Fatalf("warm rerun simulated %d jobs, want 0 (stats %+v)", st.Simulated, st)
	}
	if st.DiskHits != 4 {
		t.Fatalf("warm rerun disk hits = %d, want 4", st.DiskHits)
	}
}
