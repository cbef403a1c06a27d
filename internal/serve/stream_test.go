package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/scenario"
)

// streamClient bounds a stream exchange, so a server that never sends
// the response header fails the test instead of hanging it.
var streamClient = &http.Client{Timeout: 30 * time.Second}

// postStream submits spec as client.Remote does, with an Accept header
// naming the NDJSON stream, and returns once the response header
// arrives.
func postStream(t *testing.T, ts *httptest.Server, spec string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := streamClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamEvents checks that resp is an NDJSON stream and forwards its
// decoded events on the returned channel (closed at EOF).
func streamEvents(t *testing.T, resp *http.Response) <-chan client.StreamEvent {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	ch := make(chan client.StreamEvent, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for sc.Scan() {
			var ev client.StreamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Errorf("malformed stream line %q: %v", sc.Text(), err)
				return
			}
			ch <- ev
		}
	}()
	return ch
}

// TestSubmitStreamDeliversInGridOrderWhileRunning gates the simulator,
// opens the stream a submission answers with mid-sweep, and asserts
// per-point events arrive in strict grid order with valid sources,
// terminated by the done event.
func TestSubmitStreamDeliversInGridOrderWhileRunning(t *testing.T) {
	const points = 4 // testSpec's grid
	gate := make(chan struct{})
	srv := New(Config{
		Parallel: 2,
		Simulate: func(j engine.Job) (engine.Result, error) {
			<-gate
			var r engine.Result
			r.Benchmark = j.Bench
			r.Config = j.Config.Name
			r.Insts = j.Opt.Instructions
			r.Cycles = 7
			return r, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postStream(t, ts, testSpec)
	defer resp.Body.Close()
	ch := streamEvents(t, resp)

	// Nothing can stream before the first point resolves.
	select {
	case ev := <-ch:
		t.Fatalf("premature stream event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)

	var events []client.StreamEvent
	deadline := time.After(30 * time.Second)
	for ev := range ch {
		events = append(events, ev)
		select {
		case <-deadline:
			t.Fatal("stream did not finish in 30s")
		default:
		}
	}
	if len(events) != points+1 {
		t.Fatalf("got %d events, want %d points + done", len(events), points)
	}
	for i, ev := range events[:points] {
		if ev.Index != i || ev.Result == nil || ev.Error != "" || ev.Done {
			t.Fatalf("event %d out of order or malformed: %+v", i, ev)
		}
		if ev.Benchmark != "swim" || ev.Result.Cycles != 7 {
			t.Fatalf("event %d payload: %+v", i, ev)
		}
		if ev.Source != engine.SourceSimulated && ev.Source != engine.SourceMemory &&
			ev.Source != engine.SourceDisk && ev.Source != engine.SourceShared {
			t.Fatalf("event %d source = %q", i, ev.Source)
		}
	}
	last := events[points]
	if !last.Done || last.Points != points {
		t.Fatalf("terminal event = %+v", last)
	}
}

// TestSubmitStreamFlushesBeforeWaiting gates each job on its own
// channel: the stream a submission answers with must deliver its
// response header while point 0 is still blocked, and point 0 while
// point 1 is, since the stream flushes whatever it holds before it
// waits.
func TestSubmitStreamFlushesBeforeWaiting(t *testing.T) {
	gates := map[string]chan struct{}{"swim": make(chan struct{}), "gcc": make(chan struct{})}
	srv := New(Config{
		Parallel: 2,
		Simulate: func(j engine.Job) (engine.Result, error) {
			<-gates[j.Bench]
			var r engine.Result
			r.Benchmark = j.Bench
			return r, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Whatever fails, let the sweep finish (a receive succeeds only
	// from a closed gate).
	defer func() {
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	}()

	resp := postStream(t, ts, `{"benchmarks": ["swim", "gcc"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	defer resp.Body.Close()
	ch := streamEvents(t, resp)

	close(gates["swim"])
	select {
	case ev := <-ch:
		if ev.Index != 0 || ev.Benchmark != "swim" || ev.Result == nil {
			t.Fatalf("first event %+v, want point 0 (swim)", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("point 0 did not reach the client while point 1 was blocked")
	}
	select {
	case ev := <-ch:
		t.Fatalf("event %+v arrived while point 1 was blocked", ev)
	case <-time.After(50 * time.Millisecond):
	}
	close(gates["gcc"])
	want := []string{"1:gcc", "done"}
	var got []string
	for ev := range ch {
		got = append(got, eventTag(ev))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after point 0: events %v, want %v", got, want)
	}
}

// eventTag names a stream event: index and benchmark, or done.
func eventTag(ev client.StreamEvent) string {
	if ev.Done {
		return "done"
	}
	return fmt.Sprintf("%d:%s", ev.Index, ev.Benchmark)
}

// TestStreamUnknownSweep404s: the server keeps no sweep once its stream
// ends, so there is none to re-attach to or fetch: every per-sweep GET
// path answers 404, for a sweep that just ran as for one that never did.
func TestStreamUnknownSweep404s(t *testing.T) {
	ts := httptest.NewServer(New(Config{Parallel: 1}))
	defer ts.Close()
	sweepDone(t, ts, stubSpec, 1)
	for _, path := range []string{"/v1/sweeps/sw-000001/stream", "/v1/sweeps/sw-999999/stream",
		"/v1/sweeps/sw-000001", "/v1/sweeps/sw-000001/status", "/v1/sweeps/sw-000001/manifest"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestStreamFailedSweepTerminatesWithError: the stream of a sweep with
// a failed point delivers the points before it and ends with an error
// event at the failed point, with no done event.
func TestStreamFailedSweepTerminatesWithError(t *testing.T) {
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			if j.Bench == "gcc" {
				return engine.Result{}, fmt.Errorf("injected stream failure")
			}
			return engine.Result{}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	s := sweepSpec(t, ts, `{"benchmarks": ["swim", "gcc"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	if len(s) != 2 || s[0].Index != 0 || s[0].Result == nil {
		t.Fatalf("failed sweep streamed %d events: %+v", len(s), s)
	}
	if last := s.last(); last.Index != 1 || !strings.Contains(last.Error, "injected stream failure") {
		t.Fatalf("terminal event = %+v", last)
	}
}

// gatedSpec is a two-point sweep: tests fail or spoil point 0 (swim)
// while point 1 (gcc) waits on a gate in the simulator.
const gatedSpec = `{"benchmarks": ["swim", "gcc"], "schemes": [{"scheme": "MB_distr"}],
	"warmup": 100, "instructions": 200}`

// streamUntilEnd submits spec and reads its stream to the end, failing
// the test if the stream is still open after 10 s: with a later point
// held on a gate, that shows the stream ended without waiting for it.
func streamUntilEnd(t *testing.T, ts *httptest.Server, spec string) []client.StreamEvent {
	t.Helper()
	resp := postStream(t, ts, spec)
	defer resp.Body.Close()
	ch := streamEvents(t, resp)
	var events []client.StreamEvent
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return events
			}
			events = append(events, ev)
		case <-timeout:
			t.Fatalf("stream still open while a later point was held, after %+v", events)
		}
	}
}

// TestStreamFailedPointEndsWithoutWaiting: a failed point's error event
// ends the stream as soon as the in-order prefix reaches it, while a
// later point is still simulating, and the sweep is counted failed
// before the event goes out.
func TestStreamFailedPointEndsWithoutWaiting(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{
		Parallel: 2,
		Simulate: func(j engine.Job) (engine.Result, error) {
			if j.Bench == "swim" {
				return engine.Result{}, errors.New("injected point failure")
			}
			<-gate
			return engine.Result{}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(gate)

	events := streamUntilEnd(t, ts, gatedSpec)
	want := "client: sweep point 0 (swim under MB_distr): "
	if len(events) != 1 || events[0].Index != 0 || !strings.HasPrefix(events[0].Error, want) ||
		!strings.Contains(events[0].Error, "injected point failure") {
		t.Fatalf("stream = %+v, want one error event at point 0", events)
	}
	if v := sampleValue(t, scrape(t, ts), `distiq_sweeps_total{state="failed"}`); v != 1 {
		t.Fatalf(`distiq_sweeps_total{state="failed"} = %v, want 1`, v)
	}
}

// TestStreamFailedSweepDrainWaits: Drain waits for the points a failed
// sweep had in flight when its error event went out, so a server that
// exits after Drain keeps their store writes.
func TestStreamFailedSweepDrainWaits(t *testing.T) {
	dir := t.TempDir()
	started, gate := make(chan struct{}), make(chan struct{})
	srv := New(Config{
		Parallel: 2,
		Store:    engine.NewStore(dir),
		Simulate: func(j engine.Job) (engine.Result, error) {
			if j.Bench == "swim" {
				<-started // point 1 is in the simulator
				return engine.Result{}, errors.New("injected point failure")
			}
			close(started)
			<-gate
			return engine.Result{}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if events := streamUntilEnd(t, ts, gatedSpec); len(events) != 1 || events[0].Error == "" {
		t.Fatalf("stream = %+v, want one error event at point 0", events)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	select {
	case err := <-drained:
		close(gate)
		t.Fatalf("Drain returned (%v) while point 1 was still simulating", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain still waiting after point 1 finished")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	warm := httptest.NewServer(New(Config{Parallel: 1, Store: engine.NewStore(dir)}))
	defer warm.Close()
	s := sweepDone(t, warm, `{"benchmarks": ["gcc"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`, 1)
	if c := s.counts(); c.DiskHits != 1 {
		t.Fatalf("point 1 after Drain resolved %+v, want a disk hit", c)
	}
}

// TestStreamUnencodablePoint: a point whose result the wire cannot carry
// (a non-finite float) ends the stream with an error event at its index
// naming the encode error, without waiting for a later point, and the
// sweep is counted failed.
func TestStreamUnencodablePoint(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{
		Parallel: 2,
		Simulate: func(j engine.Job) (engine.Result, error) {
			var r engine.Result
			if j.Bench == "swim" {
				r.IQEnergy = math.Inf(1)
				return r, nil
			}
			<-gate
			return r, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(gate)

	events := streamUntilEnd(t, ts, gatedSpec)
	if len(events) != 1 || events[0].Index != 0 || events[0].Result != nil ||
		!strings.HasPrefix(events[0].Error, "client: encode stream event: ") {
		t.Fatalf("stream = %+v, want one error event at point 0 naming the encode error", events)
	}
	if v := sampleValue(t, scrape(t, ts), `distiq_sweeps_total{state="failed"}`); v != 1 {
		t.Fatalf(`distiq_sweeps_total{state="failed"} = %v, want 1`, v)
	}
}

// mustSpec parses spec.
func mustSpec(t *testing.T, spec string) *scenario.Spec {
	t.Helper()
	s, err := scenario.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSubmitStreamCancelled: a client that goes away mid-stream frees
// its submission's handler while the sweep runs on, finishes and
// persists, so a warm rerun over the store simulates nothing.
func TestSubmitStreamCancelled(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	srv := New(Config{
		Parallel: 4,
		Store:    engine.NewStore(dir),
		Simulate: func(j engine.Job) (engine.Result, error) {
			// The ROB-128 half of testSpec resolves freely so the stream
			// opens; the ROB-256 half waits for the test.
			if j.Machine != nil && j.Machine.ROBSize == 256 {
				<-release
			}
			return engine.Simulate(j)
		},
	})
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			returned <- struct{}{}
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := streamClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ev client.StreamEvent
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil || ev.UnmarshalJSON(line) != nil || ev.Index != 0 || ev.Result == nil {
		t.Fatalf("first line %q (%v), want point 0", line, err)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission's handler outlived its cancelled client")
	}
	if st := srv.Stats(); st.Simulated >= 4 {
		t.Fatalf("sweep finished before its gated points were released: %+v", st)
	}
	close(release)
	// Drain waits for the abandoned sweep, which must run to its end.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Requested != 4 || st.Simulated != 4 {
		t.Fatalf("sweep after its client left: %+v", st)
	}
	if v := sampleValue(t, scrape(t, ts), `distiq_sweeps_total{state="done"}`); v != 1 {
		t.Fatalf(`distiq_sweeps_total{state="done"} = %v, want 1`, v)
	}

	warm := httptest.NewServer(New(Config{Parallel: 2, Store: engine.NewStore(dir)}))
	defer warm.Close()
	s := sweepDone(t, warm, testSpec, 4)
	if c := s.counts(); c.Simulated != 0 || c.DiskHits != 4 {
		t.Fatalf("warm rerun resolved %+v, want 4 disk hits and 0 simulated", c)
	}
}
