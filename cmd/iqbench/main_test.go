package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickRunWritesReport runs the harness end to end in quick mode and
// validates the BENCH schema: every matrix cell present, rates positive,
// the warm engine case all memory hits, and the steady-state allocation
// rate at (effectively) zero — the tentpole acceptance number.
func TestQuickRunWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var errBuf bytes.Buffer
	if code := run([]string{"-quick", "-parallel", "2", "-o", path}, &bytes.Buffer{}, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errBuf.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}

	if rep.Schema != Schema {
		t.Errorf("schema %q, want %q", rep.Schema, Schema)
	}
	if !rep.Quick || rep.Date == "" || rep.GoVersion == "" {
		t.Errorf("metadata incomplete: %+v", rep)
	}
	if want := len(schemes()) * len(benchmarks); len(rep.Pipeline) != want {
		t.Fatalf("%d pipeline cases, want %d", len(rep.Pipeline), want)
	}
	for _, pc := range rep.Pipeline {
		if pc.InstsPerSec <= 0 || pc.NSPerInst <= 0 || pc.Insts == 0 {
			t.Errorf("%s/%s: non-positive rates: %+v", pc.Scheme, pc.Bench, pc)
		}
		// The steady-state loop is allocation-free; leave headroom for
		// stray runtime activity on loaded CI machines.
		if pc.AllocsPerInst > 0.01 {
			t.Errorf("%s/%s: %.4f allocs/inst, want ~0", pc.Scheme, pc.Bench, pc.AllocsPerInst)
		}
	}
	if len(rep.Engine) != 3 {
		t.Fatalf("%d engine cases, want 3: %+v", len(rep.Engine), rep.Engine)
	}
	jobs := len(schemes()) * len(benchmarks)
	for _, ec := range rep.Engine {
		if ec.Jobs != jobs || ec.InstsPerSec <= 0 {
			t.Errorf("%s: %+v", ec.Name, ec)
		}
	}
	// gcc and mcf hold no FP operation, so their MB_distr jobs take
	// IF_distr's runs: the grid holds two fewer distinct simulations
	// than jobs.
	distinct := int64(jobs - 2)
	cold, warm := rep.Engine[0], rep.Engine[2]
	if cold.Warm || cold.Simulated != distinct {
		t.Errorf("serial-cold should simulate the %d distinct simulations of %d jobs: %+v", distinct, jobs, cold)
	}
	// A warm grid touches every job twice (prefetch + table assembly),
	// all from the in-memory cache.
	if !warm.Warm || warm.Simulated != 0 || warm.MemoryHits != int64(2*jobs) {
		t.Errorf("warm case should be all memory hits: %+v", warm)
	}
	if rep.TraceCache.Streams == 0 {
		t.Errorf("trace cache unused: %+v", rep.TraceCache)
	}

	// Client-layer cases: direct floor, cold sweep, warm sweep — the
	// recorded Client overhead numbers.
	if len(rep.Client) != 3 {
		t.Fatalf("%d client cases, want 3: %+v", len(rep.Client), rep.Client)
	}
	direct, ccold, cwarm := rep.Client[0], rep.Client[1], rep.Client[2]
	if direct.Name != "direct-simulate" || direct.Simulated != int64(jobs) || direct.InstsPerSec <= 0 {
		t.Errorf("direct case: %+v", direct)
	}
	if ccold.Warm || ccold.Simulated != distinct || ccold.InstsPerSec <= 0 {
		t.Errorf("client cold case should simulate the %d distinct simulations of %d jobs: %+v", distinct, jobs, ccold)
	}
	if !cwarm.Warm || cwarm.Simulated != 0 || cwarm.MemoryHits != int64(jobs) {
		t.Errorf("client warm case should be all memory hits: %+v", cwarm)
	}
	// The cold cases credit only the instructions they simulated: the
	// same distinct simulations, fewer than direct-simulate's every job.
	if cold.Insts != ccold.Insts || ccold.Insts >= direct.Insts {
		t.Errorf("cold cases credit %d (engine) and %d (client) insts, direct-simulate %d", cold.Insts, ccold.Insts, direct.Insts)
	}
}

// TestBadFlagsExit2 pins the CLI contract: usage errors exit 2.
func TestBadFlagsExit2(t *testing.T) {
	var errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &bytes.Buffer{}, &errBuf); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, &bytes.Buffer{}, &errBuf); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
}
