package main

import (
	"bytes"
	"strings"
	"testing"

	"distiq/internal/cliutil"
)

// TestRunRejectsBadInput: each mistake is bad input (exit 2), rejected
// before anything simulates, so nothing reaches stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, argv := range [][]string{
		{"-fig", "5"},
		{"-fig", "16"},
		{"-cycletime", "-fig", "8"},
		{"-cycletime", "-all"},
		// -all regenerates every figure; a -fig beside it, valid or
		// not, would be silently dropped.
		{"-all", "-fig", "5"},
		{"-all", "-fig", "8"},
		{"-fig", "0", "-all"},
		// -cache-dir DIR names the one store; -store is gone.
		{"-fig", "8", "-store", "mem"},
	} {
		var out, errw bytes.Buffer
		err := run(argv, &out, &errw)
		if err == nil {
			t.Errorf("%v accepted", argv)
			continue
		}
		if cliutil.ExitCode(err) != 2 {
			t.Errorf("%v: exit code %d, want 2 (%v)", argv, cliutil.ExitCode(err), err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", argv, out.String())
		}
	}
}

// TestRunCycleTimeHonorsFormat: -cycletime renders through the same
// format switch as the figures.
func TestRunCycleTimeHonorsFormat(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-cycletime", "-csv", "-quiet", "-n", "2000", "-warmup", "500"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(out.String(), "\n", 2)[0]
	if want := "rel. cycle,IF(INT),MB(INT),IF(FP),MB(FP)"; head != want {
		t.Fatalf("-cycletime -csv header = %q, want %q", head, want)
	}
	if !strings.Contains(out.String(), "\nbreak-even,") {
		t.Fatalf("-cycletime -csv has no break-even row:\n%s", out.String())
	}
}
