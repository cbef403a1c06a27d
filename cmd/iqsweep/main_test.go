package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distiq"
	"distiq/internal/cliutil"
)

func TestInts(t *testing.T) {
	got, err := ints("8, 12,16")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{8, 12, 16}) {
		t.Fatalf("ints = %v", got)
	}
	if _, err := ints("8,twelve"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestAssembleSpecFromLegacyFlags(t *testing.T) {
	spec, err := assembleSpec("", legacyFlags{
		scheme: "MixBUFF", queues: "8,12", entries: "16", chains: "0,8",
		intq: "16x16", suite: "fp", n: 60_000, warmup: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 queues x 1 entries x 2 chains x 14 FP benchmarks.
	if grid.Size() != 2*1*2*14 {
		t.Fatalf("grid size = %d", grid.Size())
	}
	if !reflect.DeepEqual(grid.Axes, []string{"scheme", "queues", "entries", "chains"}) {
		t.Fatalf("axes = %v", grid.Axes)
	}

	if _, err := assembleSpec("", legacyFlags{scheme: "nope", queues: "8",
		entries: "8", chains: "0", n: 1, warmup: 1}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := assembleSpec("", legacyFlags{scheme: "MixBUFF", queues: "8",
		entries: "8", chains: "0", bench: "nonesuch", n: 1, warmup: 1}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if _, err := run([]string{"-parallel", "-1"}, &out, &errw); err == nil {
		t.Fatal("-parallel -1 accepted")
	}
	if _, err := run([]string{"-cache-dir", "/nonexistent-parent-dir/sub/cache"}, &out, &errw); err == nil {
		t.Fatal("bad -cache-dir parent accepted")
	}
	if _, err := run([]string{"-spec", "/no/such/spec.json"}, &out, &errw); err == nil {
		t.Fatal("missing spec accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schemes": [{"scheme": "MB_distr"}], "robz": [128]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-spec", bad}, &out, &errw); err == nil ||
		!strings.Contains(err.Error(), "robz") {
		t.Fatalf("unknown axis not rejected: %v", err)
	}
}

// testSpec is a three-axis grid (scheme x ROB x perfect disambiguation)
// kept tiny so the end-to-end test stays fast.
const testSpec = `{
  "name": "e2e",
  "benchmarks": ["swim"],
  "schemes": [{"scheme": "MB_distr"}],
  "rob": [128, 256],
  "perfect_disambiguation": [false, true],
  "warmup": 1000,
  "instructions": 2000
}`

func TestRunSpecEndToEndWarmCache(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	argv := []string{"-spec", specPath, "-cache-dir", cacheDir, "-quiet", "-parallel", "2"}

	var cold, errw bytes.Buffer
	coldStats, err := run(argv, &cold, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Simulated != 4 {
		t.Fatalf("cold run simulated %d jobs, want 4", coldStats.Simulated)
	}
	head := strings.SplitN(cold.String(), "\n", 2)[0]
	want := "scheme,queues,entries,chains,rob,perfect_disambig,benchmark,ipc,iq_energy_pj,cycles"
	if head != want {
		t.Fatalf("csv header = %q, want %q", head, want)
	}
	if rows := strings.Count(cold.String(), "\n"); rows != 5 { // header + 4 points
		t.Fatalf("csv lines = %d, want 5", rows)
	}

	var warm bytes.Buffer
	warmStats, err := run(argv, &warm, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Simulated != 0 {
		t.Fatalf("warm rerun simulated %d jobs, want 0", warmStats.Simulated)
	}
	if warmStats.DiskHits == 0 {
		t.Fatal("warm rerun reported no disk hits")
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm CSV differs from cold CSV:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

// TestManifestRoundTrip is the manifest integrity gate: a cold sweep
// writes a manifest, offline verification passes against the untouched
// store, and flipping one byte of one covered entry makes it fail.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	manifestPath := filepath.Join(dir, "sweep-manifest.json")

	var out, errw bytes.Buffer
	if _, err := run([]string{"-spec", specPath, "-cache-dir", cacheDir, "-quiet",
		"-parallel", "2", "-manifest", manifestPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	m, err := distiq.LoadManifest(manifestPath)
	if err != nil {
		t.Fatalf("written manifest does not load: %v", err)
	}
	if m.Points != 4 || m.Name != "e2e" {
		t.Fatalf("manifest = %d points, name %q", m.Points, m.Name)
	}

	verify := []string{"-verify-manifest", manifestPath, "-cache-dir", cacheDir}
	if _, err := run(verify, &out, &errw); err != nil {
		t.Fatalf("verify on a pristine store: %v", err)
	}
	if !strings.Contains(errw.String(), "verified") {
		t.Fatalf("no verification report: %q", errw.String())
	}

	// Without a store there is nothing to verify against: bad input.
	if _, err := run([]string{"-verify-manifest", manifestPath}, &out, &errw); err == nil {
		t.Fatal("-verify-manifest without -cache-dir accepted")
	} else if cliutil.ExitCode(err) != 2 {
		t.Fatalf("exit code %d, want 2 (%v)", cliutil.ExitCode(err), err)
	}

	// Flip one byte of one covered entry: verification must fail with a
	// plain (exit 1) integrity error naming the point.
	victim := filepath.Join(cacheDir, m.Leaves[2].Fingerprint+".json")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = run(verify, &out, &errw)
	if err == nil {
		t.Fatal("verify passed over a tampered store")
	}
	if cliutil.ExitCode(err) != 1 {
		t.Fatalf("tamper exit code %d, want 1 (%v)", cliutil.ExitCode(err), err)
	}
	if !strings.Contains(err.Error(), "point 2") {
		t.Fatalf("tamper error does not name the point: %v", err)
	}
}

func TestRunDumpSpecRoundTrips(t *testing.T) {
	var out, errw bytes.Buffer
	if _, err := run([]string{"-dump-spec", "-bench", "swim", "-scheme", "IssueFIFO",
		"-queues", "8", "-entries", "8", "-chains", "0"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	spec, err := distiq.ParseScenarioSpec(out.Bytes())
	if err != nil {
		t.Fatalf("dumped spec does not parse back: %v\n%s", err, out.String())
	}
	if len(spec.Schemes) != 1 || spec.Schemes[0].Scheme != "IssueFIFO" {
		t.Fatalf("round-tripped spec = %+v", spec)
	}
}

// TestDumpSpecByteIdenticalRoundTrip pins the -dump-spec contract:
// whatever legacy flag combination generated the spec, parsing the
// dumped JSON back through the strict parser and re-rendering it must
// reproduce the dumped bytes exactly. A drift here would mean the CLI
// emits fields the parser normalizes away (or vice versa), so dumped
// specs would stop being canonical.
func TestDumpSpecByteIdenticalRoundTrip(t *testing.T) {
	combos := [][]string{
		{"-dump-spec", "-scheme", "MixBUFF", "-queues", "4,8", "-entries", "8,16",
			"-chains", "0,8", "-suite", "fp", "-distr"},
		{"-dump-spec", "-scheme", "IssueFIFO", "-queues", "8", "-entries", "8",
			"-chains", "0", "-bench", "swim,gzip"},
		{"-dump-spec", "-scheme", "LatFIFO", "-queues", "2,4,8", "-entries", "32",
			"-chains", "0", "-intq", "8x8", "-n", "30000", "-warmup", "5000"},
	}
	for _, argv := range combos {
		var out, errw bytes.Buffer
		if _, err := run(argv, &out, &errw); err != nil {
			t.Fatalf("%v: %v", argv, err)
		}
		spec, err := distiq.ParseScenarioSpec(out.Bytes())
		if err != nil {
			t.Fatalf("%v: dumped spec does not parse back: %v\n%s", argv, err, out.String())
		}
		again, err := spec.JSON()
		if err != nil {
			t.Fatalf("%v: %v", argv, err)
		}
		// -dump-spec prints the JSON plus a trailing newline.
		if want := append(again, '\n'); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%v: round trip is not byte-identical:\ndumped:\n%s\nre-rendered:\n%s",
				argv, out.String(), want)
		}
	}
}

func TestRunOtherFormats(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	spec := `{"benchmarks": ["swim"], "schemes": [{"scheme": "IQ_64_64"}],
		"warmup": 500, "instructions": 1000}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var md, js, errw bytes.Buffer
	if _, err := run([]string{"-spec", specPath, "-quiet", "-format", "md"}, &md, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(md.String(), "| scheme |") {
		t.Fatalf("markdown output = %q", md.String())
	}
	if _, err := run([]string{"-spec", specPath, "-quiet", "-format", "json"}, &js, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"benchmark": "swim"`) {
		t.Fatalf("json output = %q", js.String())
	}
	var bad bytes.Buffer
	if _, err := run([]string{"-spec", specPath, "-quiet", "-format", "yaml"}, &bad, &errw); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRunErrorsAreBadInput: spec and flag mistakes classify as user
// input (exit 2 via cliutil.ExitCode), matching the service's 400s.
func TestRunErrorsAreBadInput(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	// A real manifest, so -verify-manifest fails on the store and not on
	// a missing file.
	manifestPath := filepath.Join(dir, "sweep-manifest.json")
	var out, errw bytes.Buffer
	if _, err := run([]string{"-spec", specPath, "-store", "mem", "-quiet",
		"-manifest", manifestPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for name, argv := range map[string][]string{
		"bad parallel":   {"-parallel", "-1"},
		"bad queues":     {"-queues", "8,x"},
		"unknown scheme": {"-scheme", "nope"},
		"bad format": {"-bench", "swim", "-queues", "8", "-entries", "8",
			"-warmup", "100", "-n", "200", "-quiet", "-format", "yaml"},
		"removed store backend": {"-spec", specPath, "-store", "http://127.0.0.1:1/"},
		"server list":           {"-spec", specPath, "-server", "http://127.0.0.1:1,http://127.0.0.1:2"},
		// A freshly opened mem store can never hold the manifest's entries.
		"verify against mem": {"-verify-manifest", manifestPath, "-store", "mem"},
	} {
		_, err := run(argv, &out, &errw)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if cliutil.ExitCode(err) != 2 {
			t.Errorf("%s: exit code %d, want 2 (%v)", name, cliutil.ExitCode(err), err)
		}
	}
}

// TestFleetServerFlagRejectsEmptyList: a -server value that is a list
// with no usable URLs (the old fleet spelling) is user input error
// (exit taxonomy 2) naming the one-URL rule, not a crash.
func TestFleetServerFlagRejectsEmptyList(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	_, err := run([]string{"-spec", specPath, "-server", " , "}, &out, &errw)
	if err == nil {
		t.Fatal("run with an empty -server list succeeded")
	}
	if cliutil.ExitCode(err) != 2 {
		t.Fatalf("exit code %d, want 2 (%v)", cliutil.ExitCode(err), err)
	}
	if !strings.Contains(err.Error(), "takes one base URL") {
		t.Fatalf("error %q does not name the one-URL rule", err)
	}
}

// TestRunStoreBackendsEndToEnd sweeps cold through -store fs:DIR and
// warm through the -cache-dir alias for the same directory (zero
// simulations warm, identical bytes), and -verify-manifest works
// against the -store spelling.
func TestRunStoreBackendsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	manifestPath := filepath.Join(dir, "sweep-manifest.json")

	var cold, errw bytes.Buffer
	coldStats, err := run([]string{"-spec", specPath, "-store", "fs:" + cacheDir, "-quiet",
		"-parallel", "2", "-manifest", manifestPath}, &cold, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Simulated != 4 {
		t.Fatalf("cold run simulated %d jobs, want 4", coldStats.Simulated)
	}

	var warm bytes.Buffer
	warmStats, err := run([]string{"-spec", specPath, "-cache-dir", cacheDir, "-quiet",
		"-parallel", "2"}, &warm, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Simulated != 0 {
		t.Fatalf("warm rerun through -cache-dir simulated %d jobs, want 0", warmStats.Simulated)
	}
	if warmStats.DiskHits != 4 {
		t.Fatalf("warm rerun store hits = %d, want 4", warmStats.DiskHits)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm CSV differs from cold CSV:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}

	errw.Reset()
	if _, err := run([]string{"-verify-manifest", manifestPath, "-store", "fs:" + cacheDir},
		&warm, &errw); err != nil {
		t.Fatalf("verify against -store fs:DIR: %v", err)
	}
	if !strings.Contains(errw.String(), "verified") {
		t.Fatalf("no verification report: %q", errw.String())
	}

	// -store and -cache-dir together are ambiguous: bad input, exit 2.
	if _, err := run([]string{"-spec", specPath, "-store", "mem", "-cache-dir", dir,
		"-quiet"}, &warm, &errw); err == nil || cliutil.ExitCode(err) != 2 {
		t.Fatalf("-store with -cache-dir not rejected as bad input: %v", err)
	}
}
