package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distiq/internal/cliutil"
	"distiq/internal/engine"
	"distiq/internal/serve"
)

// ablationSpec is a two-variant ablation kept tiny so the end-to-end
// tests stay fast.
const ablationSpec = `{
  "name": "cli-ablation",
  "mode": "ablation",
  "benchmarks": ["swim"],
  "variants": [
    {"name": "small-rob", "rob": 128},
    {"name": "mb-distr", "scheme": "MB_distr"}
  ],
  "warmup": 1000,
  "instructions": 2000
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRejectsBadInput(t *testing.T) {
	var out, errw bytes.Buffer
	if _, err := run([]string{"-parallel", "-1", "-spec", "x.json"}, &out, &errw); err == nil {
		t.Fatal("-parallel -1 accepted")
	}
	if _, err := run([]string{}, &out, &errw); err == nil {
		t.Fatal("missing -spec accepted")
	} else if cliutil.ExitCode(err) != 2 {
		t.Fatalf("missing -spec exit code %d, want 2 (%v)", cliutil.ExitCode(err), err)
	}
	if _, err := run([]string{"-spec", "/no/such/study.json"}, &out, &errw); err == nil {
		t.Fatal("missing spec file accepted")
	}

	bad := writeSpec(t, `{"mode": "ablation", "variants": [{"name": "v", "rob": 128}], "robz": 1}`)
	if _, err := run([]string{"-spec", bad}, &out, &errw); err == nil ||
		!strings.Contains(err.Error(), "robz") {
		t.Fatalf("unknown field not rejected: %v", err)
	}

	// The retired frontier mode is bad input like any unknown mode.
	frontier := writeSpec(t, `{"mode": "frontier", "benchmarks": ["swim"]}`)
	if _, err := run([]string{"-spec", frontier}, &out, &errw); err == nil ||
		!strings.Contains(err.Error(), `unknown mode "frontier"`) {
		t.Fatalf("frontier spec not rejected: %v", err)
	} else if cliutil.ExitCode(err) != 2 {
		t.Fatalf("frontier spec exit code %d, want 2 (%v)", cliutil.ExitCode(err), err)
	}

	// An unknown format is rejected before anything simulates: the cache
	// directory stays empty.
	good := writeSpec(t, ablationSpec)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	if _, err := run([]string{"-spec", good, "-format", "xml", "-cache-dir", cacheDir, "-quiet"}, &out, &errw); err == nil {
		t.Fatal("unknown format accepted")
	} else if cliutil.ExitCode(err) != 2 {
		t.Fatalf("unknown format exit code %d, want 2 (%v)", cliutil.ExitCode(err), err)
	}
	if entries, err := os.ReadDir(cacheDir); len(entries) != 0 {
		t.Fatalf("unknown format stored %d entries (read err %v)", len(entries), err)
	}
	// -cache-dir DIR names the one store; -store is gone.
	errw.Reset()
	if _, err := run([]string{"-spec", good, "-store", "mem"}, &out, &errw); cliutil.ExitCode(err) != 2 ||
		!strings.Contains(errw.String(), "flag provided but not defined: -store") {
		t.Fatalf("-store mem: err = %v, stderr %q; want a flag error", err, errw.String())
	}
	if _, err := run([]string{"-spec", good, "-server", "http://127.0.0.1:1,http://127.0.0.1:2"}, &out, &errw); err == nil ||
		!strings.Contains(err.Error(), "takes one base URL") {
		t.Fatalf("-server list accepted: %v", err)
	} else if cliutil.ExitCode(err) != 2 {
		t.Fatalf("-server list exit code %d, want 2 (%v)", cliutil.ExitCode(err), err)
	}
}

// TestServerRejectsLocalEngineFlags: -cache-dir and -parallel configure
// only the in-process engine, so beside -server either is bad input
// (exit 2) naming the flag, rejected before the server is contacted:
// the cache directory stays empty.
func TestServerRejectsLocalEngineFlags(t *testing.T) {
	spec := writeSpec(t, ablationSpec)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	for _, tc := range []struct {
		flags []string
		named string
	}{
		{[]string{"-cache-dir", cacheDir}, "-cache-dir"},
		{[]string{"-parallel", "1"}, "-parallel"},
	} {
		var out, errw bytes.Buffer
		argv := append([]string{"-spec", spec, "-quiet", "-server", "http://127.0.0.1:1"}, tc.flags...)
		_, err := run(argv, &out, &errw)
		if cliutil.ExitCode(err) != 2 || !strings.HasPrefix(err.Error(), tc.named+": ") {
			t.Errorf("%v: err = %v (exit %d); want exit 2 naming %s", tc.flags, err, cliutil.ExitCode(err), tc.named)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.flags, out.String())
		}
	}
	if entries, err := os.ReadDir(cacheDir); len(entries) != 0 {
		t.Errorf("rejected runs stored %d entries (read err %v)", len(entries), err)
	}
}

func TestRunAblationEndToEndWarmCache(t *testing.T) {
	specPath := writeSpec(t, ablationSpec)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	argv := []string{"-spec", specPath, "-cache-dir", cacheDir, "-quiet", "-parallel", "2"}

	var cold, errw bytes.Buffer
	coldStats, err := run(argv, &cold, &errw)
	if err != nil {
		t.Fatal(err)
	}
	// baseline + 2 variants x 1 benchmark.
	if coldStats.Simulated != 3 {
		t.Fatalf("cold run simulated %d jobs, want 3", coldStats.Simulated)
	}
	head := strings.SplitN(cold.String(), "\n", 2)[0]
	want := "variant,config,ipc_hmean,iq_energy_pj,d_ipc_pct,d_energy_pct"
	if head != want {
		t.Fatalf("csv header = %q, want %q", head, want)
	}
	if rows := strings.Count(cold.String(), "\n"); rows != 4 { // header + 3 variants
		t.Fatalf("csv lines = %d, want 4", rows)
	}

	var warm bytes.Buffer
	warmStats, err := run(argv, &warm, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Simulated != 0 {
		t.Fatalf("warm rerun simulated %d jobs, want 0", warmStats.Simulated)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm CSV differs from cold CSV:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

// TestRunReplicationMode runs a replication study with -o: the table
// lands in the file and stdout stays empty.
func TestRunReplicationMode(t *testing.T) {
	specPath := writeSpec(t, `{
	  "name": "cli-replication",
	  "mode": "replication",
	  "benchmarks": ["swim"],
	  "replicates": 3,
	  "warmup": 1000,
	  "instructions": 2000
	}`)
	outPath := filepath.Join(t.TempDir(), "replication.csv")
	var out, errw bytes.Buffer
	stats, err := run([]string{"-spec", specPath, "-quiet", "-o", outPath}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-o still wrote to stdout: %q", out.String())
	}
	if stats.Simulated != 3 { // baseline x 3 seeds x 1 benchmark
		t.Fatalf("simulated %d jobs, want 3", stats.Simulated)
	}
	body, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(body), "\n", 2)[0]
	want := "variant,config,benchmark,n,ipc_mean,ipc_sd,ipc_ci95,energy_mean,energy_sd,energy_ci95"
	if head != want {
		t.Fatalf("csv header = %q, want %q", head, want)
	}
	if !strings.Contains(string(body), ",3,") {
		t.Fatalf("no n=3 column in:\n%s", body)
	}
}

// TestRunServerParity is the remote acceptance gate: the same study,
// run against a distiqd worker's sweep endpoints via -server, must
// produce bytes identical to the local run for every format.
func TestRunServerParity(t *testing.T) {
	specPath := writeSpec(t, ablationSpec)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	local := map[string]string{}
	for _, format := range []string{"csv", "json", "md"} {
		var out, errw bytes.Buffer
		if _, err := run([]string{"-spec", specPath, "-cache-dir", cacheDir,
			"-quiet", "-format", format}, &out, &errw); err != nil {
			t.Fatal(err)
		}
		local[format] = out.String()
	}

	ts := httptest.NewServer(serve.New(serve.Config{Parallel: 2, Store: engine.NewStore(cacheDir)}))
	defer ts.Close()
	for _, format := range []string{"csv", "json", "md"} {
		var out, errw bytes.Buffer
		stats, err := run([]string{"-spec", specPath, "-server", ts.URL,
			"-quiet", "-format", format}, &out, &errw)
		if err != nil {
			t.Fatal(err)
		}
		// The worker shares the CLI-warmed store: nothing re-simulates.
		if stats.Simulated != 0 {
			t.Fatalf("%s: remote run simulated %d jobs, want 0", format, stats.Simulated)
		}
		if out.String() != local[format] {
			t.Fatalf("%s: remote output differs from local:\nlocal:\n%s\nremote:\n%s",
				format, local[format], out.String())
		}
	}
	if js := local["json"]; !json.Valid([]byte(js)) {
		t.Fatalf("json output invalid:\n%s", js)
	}
}
