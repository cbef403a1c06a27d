package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distiq/internal/engine"
	"distiq/internal/serve"
)

// TestServeParityWithCLI is the acceptance gate for the distiqd service:
// the same 3-axis spec, round-tripped through the HTTP API against a
// store warmed by `iqsweep -spec`, must perform zero simulations and
// produce CSV/JSON/markdown bodies byte-identical to the CLI's output.
func TestServeParityWithCLI(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")

	// CLI runs first (cold), filling the shared store; one run per format.
	cli := map[string]string{}
	for _, format := range []string{"csv", "json", "md"} {
		var out, errw bytes.Buffer
		if _, err := run([]string{"-spec", specPath, "-cache-dir", cacheDir,
			"-quiet", "-format", format}, &out, &errw); err != nil {
			t.Fatal(err)
		}
		cli[format] = out.String()
	}

	// The service shares the store: the sweep must resolve entirely from
	// disk, simulating nothing.
	ts := httptest.NewServer(serve.New(serve.Config{Parallel: 2, Store: engine.NewStore(cacheDir)}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" && st.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != "done" {
		t.Fatalf("sweep failed: %s", st.Error)
	}
	if st.Simulated != 0 {
		t.Fatalf("warm-store sweep simulated %d jobs, want 0", st.Simulated)
	}
	if st.DiskHits == 0 {
		t.Fatalf("warm-store sweep reported no disk hits: %+v", st)
	}

	for format, want := range cli {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("fetch %s: status %d, body %s", format, r.StatusCode, body)
		}
		if string(body) != want {
			t.Errorf("%s body differs from iqsweep -spec:\n--- cli ---\n%s--- http ---\n%s",
				format, want, body)
		}
	}

	// `iqsweep -server` drives the same service through the RemoteClient
	// streaming path: bytes must match the local runs, with zero
	// simulations (the store is warm) reported through the stream.
	for format, want := range cli {
		var out, errw bytes.Buffer
		stats, err := run([]string{"-spec", specPath, "-server", ts.URL,
			"-quiet", "-format", format}, &out, &errw)
		if err != nil {
			t.Fatalf("-server run (%s): %v", format, err)
		}
		if out.String() != want {
			t.Errorf("%s body differs between -server and local runs:\n--- local ---\n%s--- server ---\n%s",
				format, want, out.String())
		}
		if stats.Simulated != 0 || stats.Requested == 0 {
			t.Errorf("-server run (%s) stats = %+v, want warm stream counts", format, stats)
		}
	}
}
