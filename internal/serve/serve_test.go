package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
)

// testSpec is the canonical 3-axis grid (scheme × ROB × perfect
// disambiguation) every end-to-end test submits; tiny so the suite stays
// fast. It matches the spec cmd/iqsweep's own e2e test uses.
const testSpec = `{
  "name": "e2e",
  "benchmarks": ["swim"],
  "schemes": [{"scheme": "MB_distr"}],
  "rob": [128, 256],
  "perfect_disambiguation": [false, true],
  "warmup": 1000,
  "instructions": 2000
}`

// streamed is the events of a submission's NDJSON stream read to its
// end.
type streamed []client.StreamEvent

// last returns the stream's terminal event.
func (s streamed) last() client.StreamEvent {
	if len(s) == 0 {
		return client.StreamEvent{}
	}
	return s[len(s)-1]
}

// points returns the stream's per-point events.
func (s streamed) points() []client.StreamEvent {
	var out []client.StreamEvent
	for _, ev := range s {
		if ev.Result != nil {
			out = append(out, ev)
		}
	}
	return out
}

// counts sums how the stream's points were resolved, as Stream.Counts
// does for a Remote sweep.
func (s streamed) counts() client.Counts {
	var c client.Counts
	for _, ev := range s.points() {
		c.Add(ev.Source)
	}
	return c
}

// readStream checks that resp answers 200 with an NDJSON stream and
// reads its events to the end of the body. It reports failures with
// Errorf, so it may run off the test goroutine.
func readStream(t *testing.T, resp *http.Response) (streamed, error) {
	t.Helper()
	defer resp.Body.Close()
	var s streamed
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return s, fmt.Errorf("submit: status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return s, fmt.Errorf("stream content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		var ev client.StreamEvent
		if err := ev.UnmarshalJSON(sc.Bytes()); err != nil {
			return s, fmt.Errorf("malformed stream line %q: %v", sc.Text(), err)
		}
		s = append(s, ev)
	}
	return s, sc.Err()
}

// sweepSpec POSTs spec as a plain JSON body, with no Accept header, and
// reads the stream the server answers with to its end.
func sweepSpec(t *testing.T, ts *httptest.Server, spec string) streamed {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	s, err := readStream(t, resp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sweepDone is sweepSpec for a sweep that must succeed with points
// points.
func sweepDone(t *testing.T, ts *httptest.Server, spec string, points int) streamed {
	t.Helper()
	s := sweepSpec(t, ts, spec)
	if last := s.last(); !last.Done || last.Points != points || len(s.points()) != points {
		t.Fatalf("stream of %d events ended with %+v, want %d points and done", len(s), last, points)
	}
	return s
}

// resultBytes encodes each point's result, the bytes every document
// assembled from the stream is built on.
func resultBytes(t *testing.T, s streamed) [][]byte {
	t.Helper()
	var out [][]byte
	for _, ev := range s.points() {
		b, err := ev.Result.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestEndToEndColdWarm submits the 3-axis spec cold, re-submits it warm,
// and asserts the warm sweep performs zero simulations while every
// streamed result stays byte-identical — the service analogue of the
// `iqsweep -spec` warm-store regression test.
func TestEndToEndColdWarm(t *testing.T) {
	cacheDir := t.TempDir()
	srv := New(Config{Parallel: 2, Store: engine.NewStore(cacheDir)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cold := sweepDone(t, ts, testSpec, 4)
	if c := cold.counts(); c.Simulated != 4 {
		t.Fatalf("cold sweep simulated %d jobs, want 4: %+v", c.Simulated, c)
	}

	warm := sweepDone(t, ts, testSpec, 4)
	if c := warm.counts(); c.Simulated != 0 || c.MemoryHits+c.DiskHits+c.Shared != 4 {
		t.Fatalf("warm sweep not fully served from caches: %+v", c)
	}
	coldBytes := resultBytes(t, cold)
	for i, b := range resultBytes(t, warm) {
		if !bytes.Equal(b, coldBytes[i]) {
			t.Errorf("point %d differs between cold and warm sweep:\ncold: %s\nwarm: %s", i, coldBytes[i], b)
		}
	}

	// A fresh server on the same store: everything resolves from disk.
	srv2 := New(Config{Parallel: 2, Store: engine.NewStore(cacheDir)})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	cross := sweepDone(t, ts2, testSpec, 4)
	if c := cross.counts(); c.Simulated != 0 || c.DiskHits != 4 {
		t.Fatalf("cross-process sweep not served from the store: %+v", c)
	}
	for i, b := range resultBytes(t, cross) {
		if !bytes.Equal(b, coldBytes[i]) {
			t.Fatalf("cross-process point %d differs:\n%s\nvs\n%s", i, coldBytes[i], b)
		}
	}
}

// TestSubmitWithoutAcceptStreams: a submission that names no media type
// gets the stream like any other — 200, NDJSON, in grid order, ending in
// the done event — and no Location, since the server holds a sweep only
// while it runs.
func TestSubmitWithoutAcceptStreams(t *testing.T) {
	ts := httptest.NewServer(New(Config{Parallel: 2}))
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := readStream(t, resp)
	if err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "" {
		t.Errorf("Location = %q, want none", loc)
	}
	if len(s) != 5 {
		t.Fatalf("got %d events, want 4 points and done: %+v", len(s), s)
	}
	for i, ev := range s[:4] {
		if ev.Index != i || ev.Result == nil {
			t.Fatalf("event %d = %+v, want point %d", i, ev, i)
		}
	}
	if last := s.last(); !last.Done || last.Points != 4 || last.Manifest == nil {
		t.Fatalf("terminal event = %+v, want done with the manifest", last)
	}
}

// TestIntrospectionEndpoints pins /v1/machine, /v1/benchmarks and
// /healthz, and that the engine counters and the build identity have no
// JSON routes of their own: /metrics serves both.
func TestIntrospectionEndpoints(t *testing.T) {
	srv := New(Config{Parallel: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var machine map[string]any
	getJSON(t, ts, "/v1/machine", &machine)
	if machine["rob_size"] != float64(256) || machine["fetch_width"] != float64(8) {
		t.Fatalf("machine doc = %v", machine)
	}

	var benches struct {
		Int []string `json:"int"`
		FP  []string `json:"fp"`
	}
	getJSON(t, ts, "/v1/benchmarks", &benches)
	if len(benches.Int) != 12 || len(benches.FP) != 14 {
		t.Fatalf("benchmarks = %d int, %d fp", len(benches.Int), len(benches.FP))
	}

	sweepDone(t, ts, testSpec, 4)
	if st := srv.Stats(); st.Requested != 4 || st.Simulated != 4 {
		t.Fatalf("engine stats = %+v", st)
	}
	for _, path := range []string{"/v1/stats", "/v1/version"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}

	var health struct {
		OK bool `json:"ok"`
	}
	getJSON(t, ts, "/healthz", &health)
	if !health.OK {
		t.Fatal("health not ok")
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v in %s", path, err, body)
	}
}

// TestDrainRefusesAndWaits: during drain, new submissions answer 503 and
// Drain returns only after in-flight sweeps finish.
func TestDrainRefusesAndWaits(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			started <- struct{}{}
			<-release
			return engine.Result{}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The stream's header arrives before its one point resolves.
	resp := postStream(t, ts, `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	held := make(chan streamed, 1)
	go func() {
		s, err := readStream(t, resp)
		if err != nil {
			t.Error(err)
		}
		held <- s
	}()
	<-started // the sweep is inside the simulator

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Drain must refuse new work...
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(testSpec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(body), "draining") {
				t.Fatalf("503 body = %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never engaged; last status %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the readiness probe must flip: 503 with the draining flag,
	// so load balancers stop routing while /livez still answers 200.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status = %d, body %s", hresp.StatusCode, hbody)
	}
	var health struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatalf("draining /healthz body %s: %v", hbody, err)
	}
	if health.OK || !health.Draining {
		t.Fatalf("draining /healthz = %+v, want ok=false draining=true", health)
	}
	var live struct {
		OK bool `json:"ok"`
	}
	getJSON(t, ts, "/livez", &live) // getJSON fails unless 200
	if !live.OK {
		t.Fatal("draining /livez not ok")
	}
	// ...while the in-flight sweep is still running.
	select {
	case err := <-drained:
		t.Fatalf("drain returned before the sweep finished: %v", err)
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s := <-held; !s.last().Done || len(s.points()) != 1 {
		t.Fatalf("sweep abandoned by drain: %+v", s)
	}
}

// TestFailedSweep surfaces simulator failures as an error event that
// ends the stream, with no done event, and counts the sweep failed.
func TestFailedSweep(t *testing.T) {
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			return engine.Result{}, fmt.Errorf("injected failure")
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	s := sweepSpec(t, ts, `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	if len(s) != 1 || !strings.Contains(s.last().Error, "injected failure") {
		t.Fatalf("failed sweep streamed %+v, want one error event", s)
	}
	body := scrape(t, ts)
	if v := sampleValue(t, body, `distiq_sweeps_total{state="failed"}`); v != 1 {
		t.Errorf(`distiq_sweeps_total{state="failed"} = %v, want 1`, v)
	}
	if v := sampleValue(t, body, `distiq_sweeps_total{state="done"}`); v != 0 {
		t.Errorf(`distiq_sweeps_total{state="done"} = %v, want 0`, v)
	}
}
