package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distiq/internal/engine"
	"distiq/internal/obs"
)

// scrape GETs /metrics, validates the exposition syntax and content
// type, and returns the body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	return string(body)
}

// sampleValue returns the value of the exposition line whose series part
// (name plus label block) is exactly series, or -1 if absent.
func sampleValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value in %q: %v", series, line, err)
		}
		return v
	}
	return -1
}

// TestMetricsAfterSweep is the acceptance scrape: right after a cold
// sweep's stream ends with its done event, the exposition parses, the
// engine counters agree with Server.Stats, the HTTP duration histograms
// have non-zero buckets and the gauges are coherent.
func TestMetricsAfterSweep(t *testing.T) {
	srv := New(Config{Parallel: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sweepDone(t, ts, testSpec, 4)
	stats := srv.Stats()
	body := scrape(t, ts)

	// Engine counters are read from the Stats snapshot, so the two views
	// must agree exactly.
	if v := sampleValue(t, body, `distiq_engine_requests_total`); v != float64(stats.Requested) {
		t.Errorf("distiq_engine_requests_total = %v, Stats().Requested = %d", v, stats.Requested)
	}
	if v := sampleValue(t, body, `distiq_engine_jobs_total{source="simulated"}`); v != float64(stats.Simulated) {
		t.Errorf(`distiq_engine_jobs_total{source="simulated"} = %v, Stats().Simulated = %d`, v, stats.Simulated)
	}

	// Every one of the four points ran the simulator once, and each run
	// is one latency observation.
	if v := sampleValue(t, body, `distiq_engine_simulate_duration_seconds_count`); v != 4 {
		t.Errorf("distiq_engine_simulate_duration_seconds_count = %v, want 4 (one per job)", v)
	}
	if !regexp.MustCompile(`distiq_engine_simulate_duration_seconds_bucket\{le="\+Inf"\} [1-9]`).MatchString(body) {
		t.Error("simulate duration histogram has no non-zero bucket")
	}
	if strings.Contains(body, "distiq_engine_batch_") {
		t.Error("exposition still carries distiq_engine_batch_* families")
	}

	// The submission, stream included, landed in the per-route request
	// counter and duration histogram.
	if v := sampleValue(t, body, `distiq_http_requests_total{code="200",route="/v1/sweeps"}`); v != 1 {
		t.Errorf("submit counted %v times, want 1", v)
	}
	if v := sampleValue(t, body, `distiq_http_request_duration_seconds_count{route="/v1/sweeps"}`); v != 1 {
		t.Errorf("submit observed %v times, want 1", v)
	}
	if !regexp.MustCompile(`distiq_http_request_duration_seconds_bucket\{le="\+Inf",route="/v1/sweeps"\} [1-9]`).MatchString(body) {
		t.Error("http duration histogram has no non-zero bucket")
	}

	// Gauges: the scrape itself is the one in-flight request; the sweep
	// is finished, so nothing is queued or running.
	if v := sampleValue(t, body, `distiq_http_in_flight_requests`); v != 1 {
		t.Errorf("distiq_http_in_flight_requests = %v, want 1 (the scrape)", v)
	}
	if v := sampleValue(t, body, `distiq_engine_queue_depth`); v != 0 {
		t.Errorf("distiq_engine_queue_depth = %v, want 0", v)
	}
	if v := sampleValue(t, body, `distiq_engine_workers_busy`); v != 0 {
		t.Errorf("distiq_engine_workers_busy = %v, want 0", v)
	}
	if v := sampleValue(t, body, `distiq_sweeps_total{state="accepted"}`); v != 1 {
		t.Errorf(`distiq_sweeps_total{state="accepted"} = %v, want 1`, v)
	}
	if v := sampleValue(t, body, `distiq_sweeps_total{state="done"}`); v != 1 {
		t.Errorf(`distiq_sweeps_total{state="done"} = %v, want 1`, v)
	}
	if v := sampleValue(t, body, `distiq_sweep_insts_per_second`); v <= 0 {
		t.Errorf("distiq_sweep_insts_per_second = %v, want > 0", v)
	}
}

// TestMetricsNamesMatchDocs is the CI observability gate: every metric
// name the architecture document lists must appear in a live scrape, so
// the docs cannot drift from the exposition.
func TestMetricsNamesMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`distiq_[a-z0-9_]+`).FindAllString(string(doc), -1)
	seen := map[string]bool{}
	var docNames []string
	for _, n := range names {
		// Sample suffixes in prose resolve to their histogram family.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(n, suf); ok && base != "distiq_engine_workers" {
				n = base
			}
		}
		if !seen[n] {
			seen[n] = true
			docNames = append(docNames, n)
		}
	}
	if len(docNames) < 10 {
		t.Fatalf("only %d metric names found in docs/ARCHITECTURE.md — is the table gone?", len(docNames))
	}

	srv := New(Config{Parallel: 1, Store: engine.NewStore(t.TempDir())})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sweepDone(t, ts, testSpec, 4)
	body := scrape(t, ts)

	for _, n := range docNames {
		if !strings.Contains(body, "# TYPE "+n+" ") {
			t.Errorf("documented metric %s missing from /metrics", n)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestIDHeader: well-formed caller IDs thread through, absent or
// malformed ones are replaced by a generated 16-hex-digit ID.
func TestRequestIDHeader(t *testing.T) {
	srv := New(Config{Parallel: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(inbound string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/machine", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inbound != "" {
			req.Header.Set("X-Request-Id", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	genRE := regexp.MustCompile(`^[0-9a-f]{16}$`)
	if id := get(""); !genRE.MatchString(id) {
		t.Errorf("generated id = %q, want 16 hex digits", id)
	}
	if id := get("trace-41.B_7"); id != "trace-41.B_7" {
		t.Errorf("well-formed inbound id not echoed: %q", id)
	}
	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 65)} {
		if id := get(bad); id == bad || !genRE.MatchString(id) {
			t.Errorf("malformed inbound %q: echoed %q, want generated", bad, id)
		}
	}
}

// logBuffer is a goroutine-safe sink for the server's structured log.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredRequestLog: every API request produces one JSON record
// carrying the route, status and X-Request-Id; probe and scrape routes
// stay below the info level; a sweep's lifecycle records carry its
// submission's request ID and its spec's name.
func TestStructuredRequestLog(t *testing.T) {
	var buf logBuffer
	srv := New(Config{
		Parallel: 1,
		Logger:   slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/machine", nil)
	req.Header.Set("X-Request-Id", "log-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	// The middleware logs after the handler writes the body, so the
	// record can land an instant after the client sees the response.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), `"route":"/v1/machine"`) {
		if time.Now().After(deadline) {
			t.Fatalf("no request record; log: %s", buf.String())
		}
		time.Sleep(time.Millisecond)
	}

	var rec struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Route     string  `json:"route"`
		Status    int     `json:"status"`
		RequestID string  `json:"request_id"`
		Duration  float64 `json:"duration_ms"`
	}
	found := false
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "/healthz") || strings.Contains(line, "/metrics") {
			t.Errorf("probe route logged at info: %s", line)
		}
		if !strings.Contains(line, `"route":"/v1/machine"`) {
			continue
		}
		found = true
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %s: %v", line, err)
		}
		if rec.Msg != "request" || rec.Method != "GET" || rec.Status != 200 ||
			rec.RequestID != "log-test-1" || rec.Duration < 0 {
			t.Errorf("record = %+v", rec)
		}
	}
	if !found {
		t.Fatal("no /v1/machine record")
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(testSpec))
	req.Header.Set("X-Request-Id", "log-sweep-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := readStream(t, resp); err != nil || !s.last().Done {
		t.Fatalf("sweep: %+v (%v)", s, err)
	}
	for _, msg := range []string{"sweep accepted", "sweep done"} {
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(buf.String(), `"msg":"`+msg+`"`) {
			if time.Now().After(deadline) {
				t.Fatalf("no %q record; log: %s", msg, buf.String())
			}
			time.Sleep(time.Millisecond)
		}
	}
	sc = bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec struct {
			Msg       string `json:"msg"`
			Name      string `json:"name"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %s: %v", sc.Bytes(), err)
		}
		if strings.HasPrefix(rec.Msg, "sweep ") && (rec.Name != "e2e" || rec.RequestID != "log-sweep-1") {
			t.Errorf("lifecycle record %s, want name e2e and request_id log-sweep-1", sc.Bytes())
		}
	}
}

// TestDoneEventCarriesManifest: the done event of a sweep's stream
// carries its manifest, which verifies, names the spec, has a leaf per
// point and equals BuildManifest over the streamed results. A failed
// sweep's stream ends in its error, with no manifest.
func TestDoneEventCarriesManifest(t *testing.T) {
	srv := New(Config{Parallel: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	s := sweepDone(t, ts, testSpec, 4)
	m := s.last().Manifest
	if m == nil {
		t.Fatal("done event carries no manifest")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("manifest does not verify: %v", err)
	}
	if m.Points != 4 || m.Name != "e2e" || len(m.Leaves) != 4 {
		t.Fatalf("manifest = %d points, name %q, %d leaves", m.Points, m.Name, len(m.Leaves))
	}
	grid, err := mustSpec(t, testSpec).Expand()
	if err != nil {
		t.Fatal(err)
	}
	var results []engine.Result
	for _, ev := range s.points() {
		results = append(results, *ev.Result)
	}
	want, err := engine.BuildManifest("e2e", grid.Jobs(), results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("streamed manifest root %s, BuildManifest over the streamed results %s", m.Root, want.Root)
	}

	// A failed sweep ends with its error instead of a manifest.
	fsrv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			return engine.Result{}, fmt.Errorf("injected failure")
		},
	})
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	fs := sweepSpec(t, fts, testSpec)
	for _, ev := range fs {
		if ev.Done || ev.Manifest != nil {
			t.Fatalf("failed sweep streamed %+v", ev)
		}
	}
	if !strings.Contains(fs.last().Error, "injected failure") {
		t.Fatalf("failed sweep ended with %+v", fs.last())
	}
}
