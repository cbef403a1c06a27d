package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/scenario"
	"distiq/internal/serve"
)

// testGrid expands the canonical tiny 3-axis grid (4 points over swim)
// shared with the serve and iqsweep end-to-end suites.
func testGrid(t *testing.T) *scenario.Grid {
	t.Helper()
	spec := scenario.New("e2e").
		WithBenchmarks("swim").
		WithNamed("MB_distr").
		WithROB(128, 256).
		WithPerfectDisambiguation(false, true).
		WithLengths(1000, 2000)
	grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if grid.Size() != 4 {
		t.Fatalf("test grid has %d points, want 4", grid.Size())
	}
	return grid
}

// emitAll renders a result set in every format.
func emitAll(t *testing.T, rs *scenario.ResultSet) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, format := range []string{"csv", "json", "md"} {
		var b strings.Builder
		if err := rs.Emit(&b, format); err != nil {
			t.Fatal(err)
		}
		out[format] = b.String()
	}
	return out
}

// TestLocalSweepStreamsInGridOrder: updates arrive with strictly
// increasing indexes whatever the parallelism, and match the grid's
// points.
func TestLocalSweepStreamsInGridOrder(t *testing.T) {
	grid := testGrid(t)
	cl := client.NewLocal(client.WithParallel(8))
	st := cl.Sweep(context.Background(), grid)
	n := 0
	for st.Next() {
		u := st.Update()
		if u.Index != n {
			t.Fatalf("update %d has index %d", n, u.Index)
		}
		if u.Point.Bench != grid.Points[n].Bench {
			t.Fatalf("update %d is for %q, want %q", n, u.Point.Bench, grid.Points[n].Bench)
		}
		if u.Result.Insts == 0 {
			t.Fatalf("update %d has an empty result", n)
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != grid.Size() {
		t.Fatalf("stream delivered %d of %d points", n, grid.Size())
	}
	if c := st.Counts(); c.Total() != int64(grid.Size()) {
		t.Fatalf("counts = %+v, want total %d", c, grid.Size())
	}
}

// TestLocalResultSetMatchesEngine: the Client layer's collected
// documents are byte-identical to resolving the grid's jobs directly on
// an engine — the Client is a layer over the same engine, not a fork.
func TestLocalResultSetMatchesEngine(t *testing.T) {
	grid := testGrid(t)
	st := client.NewLocal(client.WithParallel(4)).Sweep(context.Background(), grid)
	rs, err := st.ResultSet()
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(engine.Config{Workers: 1}).ResultAll(grid.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	got, want := emitAll(t, rs), emitAll(t, &scenario.ResultSet{Grid: grid, Results: results})
	for format := range want {
		if got[format] != want[format] {
			t.Errorf("%s drifted between Client and engine:\n--- client ---\n%s--- engine ---\n%s",
				format, got[format], want[format])
		}
	}
}

// TestResultSetAfterNextErrors: mixing the two consumption modes is
// rejected instead of silently dropping the consumed prefix.
func TestResultSetAfterNextErrors(t *testing.T) {
	grid := testGrid(t)
	st := client.NewLocal(client.WithParallel(4)).Sweep(context.Background(), grid)
	if !st.Next() {
		t.Fatal(st.Err())
	}
	if _, err := st.ResultSet(); err == nil {
		t.Fatal("ResultSet after Next did not error")
	}
	for st.Next() {
	}
}

// waitIdle blocks until the engine has accounted every requested job, so
// background in-flight work from an abandoned sweep cannot race the next
// assertion.
func waitIdle(t *testing.T, cl *client.Local, requested int64) engine.Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := cl.Stats()
		if st.Requested == requested &&
			st.Simulated+st.MemoryHits+st.DiskHits+st.Shared+st.Canceled == st.Requested {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never quiesced: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLocalSweepCancelledMidFlight is the acceptance scenario at the
// Client layer: cancelling a sweep returns promptly with an error
// unwrapping to context.Canceled, the store stays consistent, and a warm
// rerun through a fresh client finishes only the remaining points — zero
// re-simulations for completed ones.
func TestLocalSweepCancelledMidFlight(t *testing.T) {
	dir := t.TempDir()
	spec := scenario.New("cancel").
		WithBenchmarks("swim", "applu", "lucas").
		WithNamed("MB_distr", "IQ_64_64").
		WithROB(128, 256).
		WithLengths(500, 1500)
	grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	n := grid.Size() // 12 points

	first := client.NewLocal(client.WithParallel(2), client.WithStore(engine.NewStore(dir)))
	ctx, cancel := context.WithCancel(context.Background())
	st := first.Sweep(ctx, grid)
	if !st.Next() {
		t.Fatalf("no first update: %v", st.Err())
	}
	cancel()
	start := time.Now()
	for st.Next() {
	}
	if waited := time.Since(start); waited > 30*time.Second {
		t.Fatalf("cancelled sweep drained in %v; want prompt return", waited)
	}
	err = st.Err()
	if err == nil {
		t.Skip("sweep finished before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream err = %v, want context.Canceled in the chain", err)
	}
	st1 := waitIdle(t, first, int64(n))
	if st1.Canceled == 0 {
		t.Fatalf("stream failed (%v) but the engine cancelled nothing: %+v", err, st1)
	}

	second := client.NewLocal(client.WithParallel(2), client.WithStore(engine.NewStore(dir)))
	rs, err := second.Sweep(context.Background(), grid).ResultSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != n {
		t.Fatalf("warm rerun returned %d of %d results", len(rs.Results), n)
	}
	st2 := second.Stats()
	if got, want := st2.Simulated, int64(n)-st1.Simulated; got != want {
		t.Fatalf("warm rerun simulated %d, want %d (first run completed %d of %d)",
			got, want, st1.Simulated, n)
	}
	if st2.DiskHits != st1.Simulated {
		t.Fatalf("warm rerun disk hits = %d, want %d", st2.DiskHits, st1.Simulated)
	}
}

// TestLocalSweepFailureCancelsRemainder: once the first grid-order
// failure terminates the stream, the sweep's unscheduled points are
// cancelled instead of burning workers on a doomed grid. Worker-slot
// order is scheduler-chosen, so a single attempt can legitimately see
// the failing point scheduled last (nothing left to cancel); the
// mechanism is asserted across attempts — with point 0 failing
// instantly and successes slow, one attempt failing to cancel anything
// has probability ~1/4, twenty in a row is effectively impossible.
func TestLocalSweepFailureCancelsRemainder(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		grid := testGrid(t) // 4 points over swim, ROB {128,256} × pdis
		var calls int64
		eng := engine.New(engine.Config{Workers: 1, Simulate: func(j engine.Job) (engine.Result, error) {
			atomic.AddInt64(&calls, 1)
			// Point 0 exactly: ROB 128, disambiguation off.
			if j.Machine != nil && j.Machine.ROBSize == 128 && !j.Machine.PerfectDisambiguation {
				return engine.Result{}, errors.New("injected point failure")
			}
			time.Sleep(10 * time.Millisecond)
			return engine.Result{}, nil
		}})
		cl := client.NewLocalOn(eng)
		st := cl.Sweep(context.Background(), grid)
		for st.Next() {
		}
		if err := st.Err(); err == nil || !strings.Contains(err.Error(), "injected point failure") {
			t.Fatalf("stream err = %v, want the injected failure", err)
		}
		// Quiesce: every point either reached the simulator (succeeded
		// or failed there) or was cancelled. waitIdle's identity does
		// not apply — failed simulations count only under Requested.
		deadline := time.Now().Add(30 * time.Second)
		var stats engine.Stats
		for {
			stats = cl.Stats()
			if atomic.LoadInt64(&calls)+stats.Canceled == int64(grid.Size()) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep never quiesced: %+v after %d simulator calls",
					stats, atomic.LoadInt64(&calls))
			}
			time.Sleep(2 * time.Millisecond)
		}
		if stats.Canceled > 0 {
			return // the failure stopped at least one unscheduled point
		}
	}
	t.Fatal("in 20 attempts, a mid-sweep failure never cancelled any remaining point")
}

// TestLocalVsRemoteParity is the Local-vs-Remote parity suite: the same
// grid through a LocalClient and a RemoteClient (against an httptest
// distiqd sharing the store) yields byte-identical CSV/JSON/markdown,
// and warm reruns report identical resolution counts on both substrates.
func TestLocalVsRemoteParity(t *testing.T) {
	dir := t.TempDir()
	grid := testGrid(t)

	// Cold local sweep populates the store.
	cold := client.NewLocal(client.WithParallel(2), client.WithStore(engine.NewStore(dir)))
	coldStream := cold.Sweep(context.Background(), grid)
	coldRS, err := coldStream.ResultSet()
	if err != nil {
		t.Fatal(err)
	}
	coldDocs := emitAll(t, coldRS)
	if c := coldStream.Counts(); c.Simulated != 4 {
		t.Fatalf("cold sweep counts = %+v, want 4 simulated", c)
	}

	// Remote sweep through a distiqd sharing the store: warm, so every
	// point is a disk hit — and the documents must match byte-for-byte.
	srv := serve.New(serve.Config{Parallel: 2, Store: engine.NewStore(dir)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	remote := client.NewRemote(ts.URL)
	remoteStream := remote.Sweep(context.Background(), testGrid(t))
	remoteRS, err := remoteStream.ResultSet()
	if err != nil {
		t.Fatal(err)
	}
	remoteDocs := emitAll(t, remoteRS)

	// Warm local rerun through a fresh client on the same store.
	warm := client.NewLocal(client.WithParallel(2), client.WithStore(engine.NewStore(dir)))
	warmStream := warm.Sweep(context.Background(), testGrid(t))
	warmRS, err := warmStream.ResultSet()
	if err != nil {
		t.Fatal(err)
	}
	warmDocs := emitAll(t, warmRS)

	for format := range coldDocs {
		if remoteDocs[format] != coldDocs[format] {
			t.Errorf("%s differs between LocalClient and RemoteClient:\n--- local ---\n%s--- remote ---\n%s",
				format, coldDocs[format], remoteDocs[format])
		}
		if warmDocs[format] != coldDocs[format] {
			t.Errorf("%s differs between cold and warm local sweeps", format)
		}
	}

	rc, wc := remoteStream.Counts(), warmStream.Counts()
	if rc != wc {
		t.Errorf("warm resolution counts differ: remote %+v, local %+v", rc, wc)
	}
	if rc.Simulated != 0 || wc.Simulated != 0 {
		t.Errorf("warm reruns simulated: remote %+v, local %+v", rc, wc)
	}
	if rc.Total() != int64(grid.Size()) {
		t.Errorf("remote counts cover %d of %d points", rc.Total(), grid.Size())
	}
}

// TestRemoteSweepCancellation: cancelling the context mid-stream fails
// the stream with context.Canceled while the service finishes the sweep
// on its side.
func TestRemoteSweepCancellation(t *testing.T) {
	release := make(chan struct{})
	srv := serve.New(serve.Config{
		// Every point gets a worker at once, so the free (ROB 128) half
		// cannot starve behind a gated job holding the only slot.
		Parallel: 4,
		Simulate: func(j engine.Job) (engine.Result, error) {
			// The grid's first two points (ROB 128) resolve freely so the
			// stream opens; the ROB-256 half blocks until the test ends,
			// pinning the sweep mid-flight when the context is cancelled.
			if j.Machine != nil && j.Machine.ROBSize == 256 {
				<-release
			}
			var r engine.Result
			r.Benchmark = j.Bench
			r.Insts = j.Opt.Instructions
			return r, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(release)

	grid := testGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	st := client.NewRemote(ts.URL).Sweep(ctx, grid)
	if !st.Next() {
		t.Fatalf("no first update: %v", st.Err())
	}
	cancel()
	done := make(chan struct{})
	go func() {
		for st.Next() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled remote stream did not terminate")
	}
	if err := st.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream err = %v, want context.Canceled in the chain", err)
	}
}
