package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"distiq/internal/engine"
	"distiq/internal/serve"
)

// TestServeParityWithCLI is the acceptance gate for the distiqd service:
// the same 3-axis spec, swept by `iqsweep -server` through a service
// whose store `iqsweep -spec` warmed, must perform zero simulations and
// print CSV/JSON/markdown bodies byte-identical to the CLI's output.
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

	// The service shares the store: its sweeps must resolve entirely
	// from disk or memory, simulating nothing.
	ts := httptest.NewServer(serve.New(serve.Config{Parallel: 2, Store: engine.NewStore(cacheDir)}))
	defer ts.Close()
	// `iqsweep -server` drives the service through the RemoteClient
	// streaming path: bytes must match the local runs, with zero
	// simulations (the store is warm) reported through the stream. The
	// first run's points come from the store, the later ones' from the
	// service's memory.
	var diskHits int64
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
		diskHits += stats.DiskHits
	}
	if diskHits == 0 {
		t.Fatal("warm-store -server runs reported no disk hits")
	}
}
