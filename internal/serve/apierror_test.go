package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distiq/internal/engine"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.txt from the current API")

// stubSpec is a minimal valid spec for the error tests that need an
// admitted sweep.
const stubSpec = `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
	"warmup": 100, "instructions": 200}`

// checkGolden renders "HTTP <status>" plus the response body and diffs it
// against testdata/golden/<name>.txt, pinning both the status code and
// the error-body shape. -update-golden rewrites the fixture.
func checkGolden(t *testing.T, name string, resp *http.Response) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("HTTP %d\n%s", resp.StatusCode, body)
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/serve -run TestAPIErrors -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("API error drifted from %s:\n--- golden ---\n%s\n--- current ---\n%s", path, want, got)
	}
}

// TestAPIErrors pins every client-visible error of the API — status code
// and body — as goldens, so the error contract can't drift silently.
func TestAPIErrors(t *testing.T) {
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) { return engine.Result{}, nil },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		spec string
	}{
		{"malformed-json", `{not json`},
		{"body-too-large", `{"pad": "` + strings.Repeat("x", 1<<20) + `"}`},
		{"trailing-data", `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}]} extra`},
		{"unknown-axis", `{"schemes": [{"scheme": "MB_distr"}], "robz": [128]}`},
		{"unknown-scheme", `{"schemes": [{"scheme": "QuantumQueue"}]}`},
		{"repeated-scheme", `{"benchmarks": ["swim"], "schemes": [{"scheme": "IQ_64_64"}, {"scheme": "baseline"}]}`},
		{"unknown-benchmark", `{"benchmarks": ["nonesuch"], "schemes": [{"scheme": "MB_distr"}]}`},
		{"no-schemes", `{"benchmarks": ["swim"]}`},
		{"rob-not-power-of-two", `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "rob": [100]}`},
		{"zero-instructions", `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "instructions": 0}`},
		{"mem-latency-past-ring", `{"benchmarks": ["mcf"], "schemes": [{"scheme": "IQ_64_64"}], "mem_latency": [2000],
			"warmup": 100, "instructions": 2000}`},
		// Specs that would make Expand or a worker allocate without
		// bound. The grid is only just over its bound, so a server
		// without one expands it cheaply.
		{"oversized-rob", `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "rob": [1073741824]}`},
		{"oversized-grid", fmt.Sprintf(`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
			"l1d_latency": %s, "l2_latency": %s}`, seq(256), seq(257))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A submission is refused the same way whatever its Accept
			// header, before anything streams.
			for _, accept := range []string{"", "application/x-ndjson"} {
				checkGolden(t, tc.name, postSpec(t, ts, tc.spec, accept))
			}
		})
	}
}

// seq renders the JSON array 1..n.
func seq(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	return "[" + strings.Join(vals, ",") + "]"
}

// postSpec submits spec, with the Accept header when accept is set.
func postSpec(t *testing.T, ts *httptest.Server, spec, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAPIErrorQueueFull pins the 429 over-quota answer: a MaxQueued-1
// server with its only slot held by a blocked sweep's open stream.
func TestAPIErrorQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := New(Config{
		Parallel:  1,
		MaxQueued: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			started <- struct{}{}
			<-release
			return engine.Result{}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	held := postStream(t, ts, stubSpec)
	<-started
	for _, accept := range []string{"", "application/x-ndjson"} {
		checkGolden(t, "queue-full", postSpec(t, ts, stubSpec, accept))
	}
	close(release)
	if s, err := readStream(t, held); err != nil || !s.last().Done {
		t.Fatalf("held sweep: %+v (%v)", s, err)
	}
}

// TestAPIErrorDraining pins the 503 refused-while-draining answer.
func TestAPIErrorDraining(t *testing.T) {
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) { return engine.Result{}, nil },
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", "application/x-ndjson"} {
		checkGolden(t, "draining", postSpec(t, ts, stubSpec, accept))
	}
}
