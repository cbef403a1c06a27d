// Golden per-scheme energy fixtures: for each issue-queue organization
// the paper evaluates, each extension comparator and each ablation
// switch, simulate one benchmark under QuickOptions and pin
// the raw event counts and the labeled energy breakdown of both domains
// byte-for-byte. The existing power tests check *relationships* (wakeup
// dominance, FIFO vs CAM ratios); these fixtures make the absolute
// numbers impossible to drift silently — any change to the event
// counting, the energy constants or the array model fails the diff and
// must be deliberate (-update-golden, same convention as
// internal/sim/testdata/golden).
package power_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
	"distiq/internal/power"
	"distiq/internal/sim"
	"distiq/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.txt from the current simulator")

// goldenBenchmark fixes the workload: swim exercises both domains (FP
// arithmetic plus integer address and loop work).
const goldenBenchmark = "swim"

// renderEvents lists every counter explicitly, so adding a field to
// power.Events forces this fixture format (and the goldens) to be
// revisited.
func renderEvents(ev *power.Events) string {
	var b strings.Builder
	f := func(name string, v uint64) { fmt.Fprintf(&b, "  %-18s %d\n", name, v) }
	f("WakeupBroadcasts", ev.WakeupBroadcasts)
	f("WakeupCAMCells", ev.WakeupCAMCells)
	f("IQWrites", ev.IQWrites)
	f("IQReads", ev.IQReads)
	f("SelectOps", ev.SelectOps)
	f("SelectEntries", ev.SelectEntries)
	f("QRenameReads", ev.QRenameReads)
	f("QRenameWrites", ev.QRenameWrites)
	f("RegsReadyReads", ev.RegsReadyReads)
	f("FIFOReads", ev.FIFOReads)
	f("FIFOWrites", ev.FIFOWrites)
	f("BuffReads", ev.BuffReads)
	f("BuffWrites", ev.BuffWrites)
	f("ChainReads", ev.ChainReads)
	f("ChainWrites", ev.ChainWrites)
	f("SelRegWrites", ev.SelRegWrites)
	f("MuxIntALU", ev.MuxIssues[isa.IntALUUnit])
	f("MuxIntMUL", ev.MuxIssues[isa.IntMulUnit])
	f("MuxFPALU", ev.MuxIssues[isa.FPAddUnit])
	f("MuxFPMUL", ev.MuxIssues[isa.FPMulUnit])
	return b.String()
}

// renderBreakdown lists the charged components in label order with a
// fixed precision, plus the total.
func renderBreakdown(bd power.Breakdown) string {
	var b strings.Builder
	for c := range power.NumComponents {
		if bd.Charged(c) {
			fmt.Fprintf(&b, "  %-18s %.4f\n", c, bd.Get(c))
		}
	}
	fmt.Fprintf(&b, "  %-18s %.4f\n", "total", bd.Total())
	return b.String()
}

func TestGoldenSchemeEnergy(t *testing.T) {
	model, err := trace.ByName(goldenBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.QuickOptions()

	// Variants get a name suffix, since the name picks the fixture file.
	unbounded := core.MixBUFFCfg(8, 16, 8, 16, 0)
	unbounded.Name += "_unbounded"
	flatSelect := core.MBDistr()
	flatSelect.Name += "_flat_select"
	flatSelect.FP.FlatSelectPriority = true
	keepIF, keepMB := core.IFDistr(), core.MBDistr()
	for _, c := range []*core.Config{&keepIF, &keepMB} {
		c.Name += "_keep_map"
		c.Int.KeepMapOnMispredict = true
		c.FP.KeepMapOnMispredict = true
	}

	for _, cfg := range []core.Config{
		core.Unbounded(),
		core.Baseline64(),
		core.AdaptiveBaseline64(),
		core.LatFIFOCfg(8, 8, 8, 16),
		core.PreSchedCfg(16, 16, 112, 16),
		core.IFDistr(),
		core.MBDistr(),
		unbounded,
		flatSelect,
		keepIF,
		keepMB,
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			p, err := pipeline.New(pipeline.DefaultConfig(cfg), trace.NewGenerator(model))
			if err != nil {
				t.Fatal(err)
			}
			p.Warmup(opt.Warmup)
			p.Run(opt.Instructions)

			var b strings.Builder
			fmt.Fprintf(&b, "config %s\nbenchmark %s\noptions warmup=%d instructions=%d\n",
				cfg.Name, goldenBenchmark, opt.Warmup, opt.Instructions)
			for _, dom := range []isa.Domain{isa.IntDomain, isa.FPDomain} {
				name := "int"
				if dom == isa.FPDomain {
					name = "fp"
				}
				sch := p.Scheme(dom)
				ev := sch.Events()
				bd := power.NewCalc(sch.Geometry()).Energy(ev)
				fmt.Fprintf(&b, "[%s events]\n%s[%s energy pJ]\n%s",
					name, renderEvents(ev), name, renderBreakdown(bd))
			}
			got := b.String()

			path := filepath.Join("testdata", "golden", cfg.Name+".txt")
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
				t.Fatalf("missing golden (run go test ./internal/power -run TestGoldenSchemeEnergy -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("energy fixture drifted from %s:\n--- golden ---\n%s--- current ---\n%s",
					path, want, got)
			}
		})
	}
}
