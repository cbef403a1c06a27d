package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distiq/internal/engine"
	"distiq/internal/scenario"
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

// submit POSTs a spec and decodes the 202 status document.
func submit(t *testing.T, ts *httptest.Server, spec string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: bad status body %s: %v", body, err)
	}
	if resp.Header.Get("Location") != "/v1/sweeps/"+st.ID {
		t.Fatalf("submit: Location = %q for id %s", resp.Header.Get("Location"), st.ID)
	}
	return st
}

// waitDone polls a sweep's status until it leaves the queued/running
// states, then returns the final status.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == string(stateDone) || st.State == string(stateFailed) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetch GETs a finished sweep's body in one format.
func fetch(t *testing.T, ts *httptest.Server, id, format string) (string, string) {
	t.Helper()
	url := ts.URL + "/v1/sweeps/" + id
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s format %q: status %d, body %s", id, format, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestEndToEndColdWarm submits the 3-axis spec cold, re-submits it warm,
// and asserts the warm sweep performs zero simulations while every
// emitted body stays byte-identical — the service analogue of the
// `iqsweep -spec` warm-store regression test.
func TestEndToEndColdWarm(t *testing.T) {
	cacheDir := t.TempDir()
	srv := New(Config{Parallel: 2, CacheDir: cacheDir})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cold := submit(t, ts, testSpec)
	if cold.Points != 4 {
		t.Fatalf("cold sweep points = %d, want 4", cold.Points)
	}
	coldDone := waitDone(t, ts, cold.ID)
	if coldDone.State != "done" {
		t.Fatalf("cold sweep state = %q (%s)", coldDone.State, coldDone.Error)
	}
	if coldDone.Simulated != 4 {
		t.Fatalf("cold sweep simulated %d jobs, want 4", coldDone.Simulated)
	}
	if coldDone.Done != 4 {
		t.Fatalf("cold sweep done = %d, want 4", coldDone.Done)
	}

	warm := submit(t, ts, testSpec)
	warmDone := waitDone(t, ts, warm.ID)
	if warmDone.Simulated != 0 {
		t.Fatalf("warm sweep simulated %d jobs, want 0", warmDone.Simulated)
	}
	if warmDone.MemoryHits+warmDone.DiskHits+warmDone.Shared != 4 {
		t.Fatalf("warm sweep not fully served from caches: %+v", warmDone)
	}

	for _, format := range []string{"csv", "json", "md"} {
		cb, _ := fetch(t, ts, cold.ID, format)
		wb, _ := fetch(t, ts, warm.ID, format)
		if cb != wb {
			t.Errorf("%s body differs between cold and warm sweep:\ncold:\n%s\nwarm:\n%s", format, cb, wb)
		}
	}

	// A fresh server on the same store: everything resolves from disk.
	srv2 := New(Config{Parallel: 2, CacheDir: cacheDir})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	cross := submit(t, ts2, testSpec)
	crossDone := waitDone(t, ts2, cross.ID)
	if crossDone.Simulated != 0 || crossDone.DiskHits != 4 {
		t.Fatalf("cross-process sweep not served from the store: %+v", crossDone)
	}
	cb, _ := fetch(t, ts, cold.ID, "csv")
	xb, _ := fetch(t, ts2, cross.ID, "csv")
	if cb != xb {
		t.Fatalf("cross-process CSV differs:\n%s\nvs\n%s", cb, xb)
	}
}

// TestResultMatchesScenarioEmitters pins the HTTP bodies to the scenario
// emitters (the code path `iqsweep -spec` uses), including content types
// and the default csv format.
func TestResultMatchesScenarioEmitters(t *testing.T) {
	srv := New(Config{Parallel: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, testSpec)
	if got := waitDone(t, ts, st.ID); got.State != "done" {
		t.Fatalf("sweep state = %q (%s)", got.State, got.Error)
	}

	spec, err := scenario.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := grid.RunOn(engine.New(engine.Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "json", "md"} {
		var want strings.Builder
		if err := res.Emit(&want, format); err != nil {
			t.Fatal(err)
		}
		got, ctype := fetch(t, ts, st.ID, format)
		if got != want.String() {
			t.Errorf("%s body drifted from the scenario emitter:\n--- emitter ---\n%s--- http ---\n%s",
				format, want.String(), got)
		}
		wantType, _ := scenario.ContentType(format)
		if ctype != wantType {
			t.Errorf("%s content type = %q, want %q", format, ctype, wantType)
		}
	}

	// The default format is csv.
	def, _ := fetch(t, ts, st.ID, "")
	csv, _ := fetch(t, ts, st.ID, "csv")
	if def != csv {
		t.Error("default format is not csv")
	}
}

// TestResultWhileRunning answers 202 with the status document until the
// sweep finishes.
func TestResultWhileRunning(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			<-release
			return engine.Result{}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-flight result fetch: status %d, body %s", resp.StatusCode, body)
	}
	var got Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("in-flight result body %s: %v", body, err)
	}
	if got.State != "queued" && got.State != "running" {
		t.Fatalf("in-flight state = %q", got.State)
	}
	close(release)
	waitDone(t, ts, st.ID)
}

// TestIntrospectionEndpoints pins /v1/machine, /v1/benchmarks, /v1/stats,
// /v1/sweeps and /healthz.
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

	st := submit(t, ts, testSpec)
	waitDone(t, ts, st.ID)

	// The stats document uses the API's snake_case keys, like every
	// other endpoint.
	var stats struct {
		Requested  int64 `json:"requested"`
		Simulated  int64 `json:"simulated"`
		MemoryHits int64 `json:"memory_hits"`
		DiskHits   int64 `json:"disk_hits"`
		Shared     int64 `json:"shared"`
		DiskErrors int64 `json:"disk_errors"`
	}
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Requested != 4 || stats.Simulated != 4 {
		t.Fatalf("engine stats = %+v", stats)
	}
	want := srv.Stats()
	got := engine.Stats{Requested: stats.Requested, Simulated: stats.Simulated,
		MemoryHits: stats.MemoryHits, DiskHits: stats.DiskHits,
		Shared: stats.Shared, DiskErrors: stats.DiskErrors}
	if got != want {
		t.Fatalf("Stats() = %+v, /v1/stats = %+v", want, got)
	}

	var list struct {
		Sweeps []Status `json:"sweeps"`
	}
	getJSON(t, ts, "/v1/sweeps", &list)
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != st.ID {
		t.Fatalf("sweep list = %+v", list)
	}
	if ids := srv.SweepIDs(); len(ids) != 1 || ids[0] != st.ID {
		t.Fatalf("SweepIDs = %v", ids)
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

	st := submit(t, ts, `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
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
	if got := waitDone(t, ts, st.ID); got.State != "done" {
		t.Fatalf("sweep abandoned by drain: %+v", got)
	}
}

// TestFailedSweep surfaces simulator failures as state "failed" and a
// 500 on the result endpoint.
func TestFailedSweep(t *testing.T) {
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			return engine.Result{}, fmt.Errorf("injected failure")
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	got := waitDone(t, ts, st.ID)
	if got.State != "failed" || !strings.Contains(got.Error, "injected failure") {
		t.Fatalf("status = %+v", got)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(string(body), "sweep_failed") {
		t.Fatalf("failed sweep fetch: status %d, body %s", resp.StatusCode, body)
	}
}

// TestHistoryEviction: finished sweeps beyond MaxHistory are evicted
// oldest-first (their ids answer 404), so a long-lived service does not
// retain every result set ever computed; unfinished sweeps are exempt.
func TestHistoryEviction(t *testing.T) {
	srv := New(Config{
		Parallel:   1,
		MaxHistory: 2,
		Simulate:   func(j engine.Job) (engine.Result, error) { return engine.Result{}, nil },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`
	var ids []string
	for i := 0; i < 5; i++ {
		st := submit(t, ts, spec)
		waitDone(t, ts, st.ID)
		ids = append(ids, st.ID)
	}

	if got := srv.SweepIDs(); len(got) != 2 {
		t.Fatalf("retained sweeps = %v, want the newest 2 of %v", got, ids)
	}
	for _, id := range ids[:3] {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted sweep %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[3:] {
		if _, ct := fetch(t, ts, id, "csv"); ct == "" {
			t.Errorf("retained sweep %s lost its results", id)
		}
	}
}
