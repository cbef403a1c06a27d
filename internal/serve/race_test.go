package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// clientSpec builds one of three overlapping 2-point specs: every spec
// shares the rob=128 point and contributes one more from a 3-value pool,
// so concurrent submissions contend on the same jobs.
func clientSpec(i int) string {
	robs := []int{256, 512, 1024}
	return fmt.Sprintf(`{
	  "name": "client-%d",
	  "benchmarks": ["swim"],
	  "schemes": [{"scheme": "MB_distr"}],
	  "rob": [128, %d],
	  "warmup": 500,
	  "instructions": 1000
	}`, i%3, robs[i%3])
}

// TestConcurrentClientsSingleFlight hammers one server with N goroutine
// clients submitting overlapping specs and asserts, via the engine's
// stats surface, that no job was simulated twice: the 16 submitted
// points cover only 4 unique jobs, and everything beyond those 4 must
// come from the in-memory cache or single-flight sharing. Run under
// -race (CI does) this also proves the submission path, the per-sweep
// streams and the shared engine are data-race free.
func TestConcurrentClientsSingleFlight(t *testing.T) {
	const clients = 8
	srv := New(Config{Parallel: 4, MaxQueued: clients})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	runs := make([]streamed, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Plain http.Post here: test helpers must not Fatal off
			// the test goroutine.
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
				strings.NewReader(clientSpec(i)))
			if err != nil {
				errs[i] = err
				return
			}
			runs[i], errs[i] = readStream(t, resp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	var perSweep int64
	for i, s := range runs {
		if last := s.last(); !last.Done || last.Points != 2 {
			t.Fatalf("client %d: stream ended with %+v", i, last)
		}
		c := s.counts()
		if len(s.points()) != 2 || c.Total() != 2 {
			t.Fatalf("client %d counts inconsistent: %+v", i, c)
		}
		perSweep += c.Simulated
	}

	// 4 unique jobs across all clients: rob 128 (shared by every spec)
	// plus rob 256, 512, 1024.
	stats := srv.Stats()
	if stats.Simulated != 4 {
		t.Fatalf("engine simulated %d jobs, want 4 (single-flight dedup broken): %+v",
			stats.Simulated, stats)
	}
	if perSweep != 4 {
		t.Fatalf("per-sweep simulated counts sum to %d, want 4", perSweep)
	}
	if stats.Requested != 2*clients {
		t.Fatalf("engine requested %d jobs, want %d", stats.Requested, 2*clients)
	}
	if stats.MemoryHits+stats.Shared != 2*clients-4 {
		t.Fatalf("cache/share counts don't cover the rest: %+v", stats)
	}
}
