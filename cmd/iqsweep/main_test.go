package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distiq"
	"distiq/internal/cliutil"
)

func TestRunRejectsBadFlags(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if _, err := run([]string{"-parallel", "-1"}, &out, &errw); err == nil {
		t.Fatal("-parallel -1 accepted")
	}
	if _, err := run([]string{"-spec", specPath, "-cache-dir", "/nonexistent-parent-dir/sub/cache"}, &out, &errw); err == nil {
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
	if warmStats.DiskHits != 4 {
		t.Fatalf("warm rerun store hits = %d, want 4", warmStats.DiskHits)
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

// TestVerifyManifestRejectsSweepFlags: -verify-manifest runs no sweep,
// so a flag other than -cache-dir beside it is bad input (exit 2)
// naming the flag, and nothing is written.
func TestVerifyManifestRejectsSweepFlags(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	manifestPath := filepath.Join(dir, "sweep-manifest.json")
	var out, errw bytes.Buffer
	if _, err := run([]string{"-spec", specPath, "-cache-dir", cacheDir, "-quiet",
		"-manifest", manifestPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "out.csv")
	manifest2 := filepath.Join(dir, "m2.json")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-spec", []string{"-spec", specPath}},
		{"-format", []string{"-format", "md"}},
		{"-o", []string{"-o", outPath}},
		{"-manifest", []string{"-manifest", manifest2}},
		{"-server", []string{"-server", "http://127.0.0.1:1"}},
		{"-parallel", []string{"-parallel", "3"}},
		{"-quiet", []string{"-quiet"}},
	} {
		argv := append([]string{"-verify-manifest", manifestPath, "-cache-dir", cacheDir}, tc.args...)
		out.Reset()
		errw.Reset()
		_, err := run(argv, &out, &errw)
		if err == nil {
			t.Errorf("%s beside -verify-manifest accepted (stderr %q)", tc.flag, errw.String())
			continue
		}
		if cliutil.ExitCode(err) != 2 || !strings.HasSuffix(err.Error(), "not "+tc.flag) {
			t.Errorf("%s: exit code %d, err %q; want 2 and an error naming the flag",
				tc.flag, cliutil.ExitCode(err), err)
		}
	}
	for _, p := range []string{outPath, manifest2} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s written beside -verify-manifest (stat err %v)", filepath.Base(p), err)
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
// input (exit 2 via cliutil.ExitCode), matching the service's 400s, and
// are rejected before anything simulates: the cache directory stays
// empty.
func TestRunErrorsAreBadInput(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	var out, errw bytes.Buffer
	for name, argv := range map[string][]string{
		"bad parallel": {"-parallel", "-1"},
		"no spec":      {"-quiet"},
		"bad format":   {"-spec", specPath, "-quiet", "-format", "yaml"},
		"bad format with a store": {"-spec", specPath, "-quiet", "-format", "xml",
			"-cache-dir", cacheDir},
		"server list": {"-spec", specPath, "-server", "http://127.0.0.1:1,http://127.0.0.1:2"},
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
	if entries, err := os.ReadDir(cacheDir); len(entries) != 0 {
		t.Errorf("rejected runs stored %d entries (read err %v)", len(entries), err)
	}
}

// TestRunRejectsOversizedSpec: a spec whose machine or grid exceeds
// the simulator's bounds exits 2 before anything simulates. Each spec
// is first checked to fail expansion in process: run would otherwise
// simulate a 2^30-entry ROB, allocating about 128 GB.
func TestRunRejectsOversizedSpec(t *testing.T) {
	seq := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint(i + 1)
		}
		return "[" + strings.Join(vals, ",") + "]"
	}
	for name, src := range map[string]string{
		"rob": `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "rob": [1073741824]}`,
		"grid": fmt.Sprintf(`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
			"l1d_latency": %s, "l2_latency": %s}`, seq(256), seq(257)),
	} {
		spec, err := distiq.ParseScenarioSpec([]byte(src))
		if err == nil {
			_, err = spec.Expand()
		}
		if err == nil {
			t.Fatalf("%s: spec expands", name)
		}
		path := filepath.Join(t.TempDir(), "grid.json")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		if _, err := run([]string{"-spec", path, "-quiet"}, &out, &errw); cliutil.ExitCode(err) != 2 {
			t.Errorf("%s: exit code %d, want 2 (%v)", name, cliutil.ExitCode(err), err)
		}
	}
}

// TestRunRejectsRepeatedScheme: a spec whose schemes axis names one
// configuration twice, here through an alias, exits 2 naming both
// entries instead of printing two identical rows.
func TestRunRejectsRepeatedScheme(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	src := `{"benchmarks": ["swim"], "schemes": [{"scheme": "IQ_64_64"}, {"scheme": "baseline"}],
		"warmup": 100, "instructions": 200}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	_, err := run([]string{"-spec", path, "-quiet"}, &out, &errw)
	if cliutil.ExitCode(err) != 2 || !strings.Contains(err.Error(), "schemes[0] and schemes[1] both resolve to IQ_64_64") {
		t.Fatalf("err = %v (exit %d), want exit 2 naming both entries", err, cliutil.ExitCode(err))
	}
	if out.Len() != 0 {
		t.Errorf("wrote %q to stdout", out.String())
	}
}

// TestRemovedGridFlagsAreFlagErrors: the grid flags that predate -spec,
// and -store, are gone, so passing one beside a spec is a flag error
// (exit 2), not a value silently dropped.
func TestRemovedGridFlagsAreFlagErrors(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range [][]string{
		{"-n", "1000"}, {"-warmup", "7"}, {"-bench", "gzip"}, {"-suite", "int"},
		{"-scheme", "MixBUFF"}, {"-queues", "8"}, {"-entries", "16"},
		{"-chains", "0"}, {"-intq", "16x16"}, {"-distr"}, {"-dump-spec"},
		// -cache-dir DIR names the one store.
		{"-store", "mem"}, {"-store", "fs:" + t.TempDir()},
	} {
		var out, errw bytes.Buffer
		_, err := run(append([]string{"-spec", specPath, "-quiet"}, flag...), &out, &errw)
		if cliutil.ExitCode(err) != 2 || !strings.Contains(errw.String(), "flag provided but not defined: "+flag[0]) {
			t.Errorf("%v: err = %v (exit %d), stderr %q; want a flag error", flag, err, cliutil.ExitCode(err), errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", flag, out.String())
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

// TestServerRejectsLocalEngineFlags: -cache-dir and -parallel configure
// only the in-process engine, so beside -server either is bad input
// (exit 2) naming the flag, rejected before the server is contacted:
// the cache directory stays empty.
func TestServerRejectsLocalEngineFlags(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	for _, tc := range []struct {
		flags []string
		named string
	}{
		{[]string{"-cache-dir", cacheDir}, "-cache-dir"},
		{[]string{"-parallel", "1"}, "-parallel"},
		{[]string{"-cache-dir", cacheDir, "-parallel", "0"}, "-cache-dir and -parallel"},
	} {
		var out, errw bytes.Buffer
		argv := append([]string{"-spec", specPath, "-quiet", "-server", "http://127.0.0.1:1"}, tc.flags...)
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
