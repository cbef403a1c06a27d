package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"distiq"
	"distiq/internal/cliutil"
)

func TestRunSummarizeAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", 2000, "", ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "benchmark") || !strings.Contains(s, "suite") {
		t.Fatalf("missing header: %q", strings.SplitN(s, "\n", 2)[0])
	}
	for _, b := range distiq.AllBenchmarks() {
		if !strings.Contains(s, b) {
			t.Fatalf("summary missing benchmark %s", b)
		}
	}
}

func TestRunDetail(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "swim", 2000, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "swim (") {
		t.Fatalf("detail output = %q", out.String())
	}
	if err := run(&out, "nonesuch", 2000, "", ""); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunCaptureAndReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "swim.diqt")

	var out bytes.Buffer
	if err := run(&out, "swim", 3000, path, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "captured 3000 instructions of swim") {
		t.Fatalf("capture output = %q", out.String())
	}

	out.Reset()
	if err := run(&out, "", 3000, "", path); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "trace of swim") {
		t.Fatalf("replay header missing: %q", s)
	}
	if !strings.Contains(s, "records:") {
		t.Fatalf("replay totals missing: %q", s)
	}
}

// TestRunRejectsBadInputs: each mistake is bad input, exit 2.
func TestRunRejectsBadInputs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		bench        string
		n            int
		dump, replay string
	}{
		{"-n 0", "", 0, "", ""},
		{"unknown benchmark", "nope", 100, "", ""},
		{"-dump of an unknown benchmark", "nope", 100, filepath.Join(t.TempDir(), "x.diqt"), ""},
		{"-dump without -bench", "", 100, "x.diqt", ""},
		{"missing replay file", "", 100, "", "/no/such/file.diqt"},
	} {
		var out bytes.Buffer
		err := run(&out, tc.bench, tc.n, tc.dump, tc.replay)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if cliutil.ExitCode(err) != 2 {
			t.Errorf("%s: exit code %d, want 2 (%v)", tc.name, cliutil.ExitCode(err), err)
		}
	}
}
