package main

import (
	"bytes"
	"testing"

	"distiq/internal/cliutil"
)

func TestResolveConfig(t *testing.T) {
	cases := []struct {
		name, intq, fpq string
		chains          int
		distr           bool
		want            string
		wantErr         bool
	}{
		{"IQ_64_64", "8x8", "8x16", 0, false, "IQ_64_64", false},
		{"baseline", "8x8", "8x16", 0, false, "IQ_64_64", false},
		{"unbounded", "8x8", "8x16", 0, false, "IQ_unbounded", false},
		{"MB_distr", "8x8", "8x16", 0, false, "MB_distr", false},
		{"IF_distr", "8x8", "8x16", 0, false, "IF_distr", false},
		{"IssueFIFO", "10x8", "12x16", 0, false, "IssueFIFO_10x8_12x16", false},
		{"LatFIFO", "8x8", "8x16", 0, false, "LatFIFO_8x8_8x16", false},
		{"MixBUFF", "8x8", "8x16", 8, true, "MixBUFF_8x8_8x16_distr", false},
		{"nonesuch", "8x8", "8x16", 0, false, "", true},
		{"MixBUFF", "8by8", "8x16", 0, false, "", true},
		{"MixBUFF", "8x8", "bad", 0, false, "", true},
	}
	for _, c := range cases {
		cfg, err := resolveConfig(c.name, c.intq, c.fpq, c.chains, c.distr)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.name, err)
			continue
		}
		if cfg.Name != c.want {
			t.Errorf("%q: name %q, want %q", c.name, cfg.Name, c.want)
		}
		if cfg.DistributedFU != (c.distr || c.name == "MB_distr" || c.name == "IF_distr") {
			t.Errorf("%q: DistributedFU wrong", c.name)
		}
	}
}

// TestRunRejectsBadInput: each mistake is bad input (exit 2), rejected
// before anything simulates, so nothing reaches stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, argv := range [][]string{
		{"-config", "NOPE"},
		{"-config", "IssueFIFO", "-intq", "9y9"},
		{"-bench", "nope"},
		{"-bench", "nope", "-trace", "10"},
		// -cache-dir DIR names the one store; -store is gone.
		{"-store", "mem"},
		// One job needs one worker, so there is no pool to size.
		{"-parallel", "2"},
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

// TestRunRejectsOversizedQueues: a queue shape past the schemes' bound
// exits 2 before anything simulates. resolveConfig is checked first,
// since without the bound run would build every queue the shape asks
// for.
func TestRunRejectsOversizedQueues(t *testing.T) {
	for _, fpq := range []string{"4097x1", "64x65", "4294967296x4294967296"} {
		if _, err := resolveConfig("IssueFIFO", "8x8", fpq, 0, false); err == nil {
			t.Fatalf("-fpq %s: configuration validates", fpq)
		}
		var out, errw bytes.Buffer
		err := run([]string{"-config", "IssueFIFO", "-fpq", fpq}, &out, &errw)
		if cliutil.ExitCode(err) != 2 || out.Len() != 0 {
			t.Errorf("-fpq %s: exit code %d, stdout %q, want 2 and nothing (%v)", fpq, cliutil.ExitCode(err), out.String(), err)
		}
	}
}
