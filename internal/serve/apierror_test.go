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
// admitted or finished sweep.
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

	// One finished sweep for the result-endpoint cases.
	done := submit(t, ts, stubSpec)
	if st := waitDone(t, ts, done.ID); st.State != "done" {
		t.Fatalf("stub sweep: %+v", st)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"malformed-json", "POST", "/v1/sweeps", `{not json`},
		{"body-too-large", "POST", "/v1/sweeps", `{"pad": "` + strings.Repeat("x", 1<<20) + `"}`},
		{"trailing-data", "POST", "/v1/sweeps",
			`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}]} extra`},
		{"unknown-axis", "POST", "/v1/sweeps",
			`{"schemes": [{"scheme": "MB_distr"}], "robz": [128]}`},
		{"unknown-scheme", "POST", "/v1/sweeps",
			`{"schemes": [{"scheme": "QuantumQueue"}]}`},
		{"unknown-benchmark", "POST", "/v1/sweeps",
			`{"benchmarks": ["nonesuch"], "schemes": [{"scheme": "MB_distr"}]}`},
		{"no-schemes", "POST", "/v1/sweeps", `{"benchmarks": ["swim"]}`},
		{"rob-not-power-of-two", "POST", "/v1/sweeps",
			`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "rob": [100]}`},
		{"zero-instructions", "POST", "/v1/sweeps",
			`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "instructions": 0}`},
		{"unknown-format", "GET", "/v1/sweeps/" + done.ID + "?format=yaml", ""},
		{"unknown-sweep", "GET", "/v1/sweeps/sw-999999", ""},
		{"unknown-sweep-status", "GET", "/v1/sweeps/sw-999999/status", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, apiRequest(t, ts, tc.method, tc.path, tc.body, ""))
			if tc.method == "POST" {
				// A submission asking for the stream is refused the same
				// way, before anything streams.
				checkGolden(t, tc.name, apiRequest(t, ts, tc.method, tc.path, tc.body, "application/x-ndjson"))
			}
		})
	}
}

// apiRequest sends one request, with the Accept header when accept is
// set.
func apiRequest(t *testing.T, ts *httptest.Server, method, path, body, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
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
// server with its only slot occupied by a blocked sweep.
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

	first := submit(t, ts, stubSpec)
	<-started
	for _, accept := range []string{"", "application/x-ndjson"} {
		checkGolden(t, "queue-full", apiRequest(t, ts, "POST", "/v1/sweeps", stubSpec, accept))
	}
	close(release)
	waitDone(t, ts, first.ID)
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
		checkGolden(t, "draining", apiRequest(t, ts, "POST", "/v1/sweeps", stubSpec, accept))
	}
}
