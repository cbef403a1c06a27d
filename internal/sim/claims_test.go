package sim

import (
	"testing"

	"distiq/internal/core"
	"distiq/internal/metrics"
	"distiq/internal/power"
	"distiq/internal/trace"
)

// TestPaperClaims verifies the qualitative results of the paper's
// evaluation end to end: the orderings and directions of its headline
// claims, on single-seed runs of 8k + 40k instructions. Runs are short
// but long enough for the orderings to be stable; the assertions use
// margins so model retuning does not cause flakiness unless a claim
// actually breaks. Whether each ordering holds across seeds is open: see
// the reproduction-ledger item in ROADMAP.md.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSession(Options{Warmup: 8_000, Instructions: 40_000})

	hm := func(suite trace.Suite, cfg core.Config) float64 {
		runs, err := s.SuiteRuns(suite, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.HarmonicMeanIPC(runs)
	}

	baseInt := hm(trace.SuiteInt, core.Unbounded())
	baseFP := hm(trace.SuiteFP, core.Unbounded())

	t.Run("FIFOsFitIntegerNotFP", func(t *testing.T) {
		// Figures 2 vs 3: the same FIFO organization loses much more
		// on FP codes than on integer codes.
		intLoss := 1 - hm(trace.SuiteInt, core.IssueFIFOCfg(16, 16, 16, 16))/baseInt
		fpLoss := 1 - hm(trace.SuiteFP, core.IssueFIFOCfg(16, 16, 8, 16))/baseFP
		if fpLoss < intLoss+0.05 {
			t.Errorf("FP FIFO loss %.1f%% not well above INT %.1f%%", 100*fpLoss, 100*intLoss)
		}
	})

	t.Run("SchemeOrderingFP", func(t *testing.T) {
		// Figures 3/4/6 at 8x16: IssueFIFO worst, LatFIFO middle,
		// MixBUFF best, baseline best of all.
		iFIFO := hm(trace.SuiteFP, core.IssueFIFOCfg(16, 16, 8, 16))
		lat := hm(trace.SuiteFP, core.LatFIFOCfg(16, 16, 8, 16))
		mix := hm(trace.SuiteFP, core.MixBUFFCfg(16, 16, 8, 16, 0))
		if !(iFIFO < lat && lat < mix && mix < baseFP) {
			t.Errorf("ordering broken: IssueFIFO %.3f, LatFIFO %.3f, MixBUFF %.3f, base %.3f",
				iFIFO, lat, mix, baseFP)
		}
	})

	t.Run("MixBUFFEntriesBeatQueues", func(t *testing.T) {
		// Section 3.2: growing buffers helps MixBUFF more than adding
		// buffers.
		e8 := hm(trace.SuiteFP, core.MixBUFFCfg(16, 16, 8, 8, 0))
		e16 := hm(trace.SuiteFP, core.MixBUFFCfg(16, 16, 8, 16, 0))
		q12 := hm(trace.SuiteFP, core.MixBUFFCfg(16, 16, 12, 8, 0))
		entriesGain := e16 - e8
		queuesGain := q12 - e8
		if entriesGain < queuesGain {
			t.Errorf("entries gain %.3f not above queues gain %.3f", entriesGain, queuesGain)
		}
	})

	t.Run("DistrSchemesEqualOnInt", func(t *testing.T) {
		// Figure 7: IF_distr and MB_distr perform identically on
		// integer codes (their integer sides are the same hardware)...
		names := trace.Benchmarks(trace.SuiteInt)
		for _, b := range names {
			if b == "eon" {
				continue // ...except eon, which has FP content.
			}
			rIF, err := s.Result(b, core.IFDistr())
			if err != nil {
				t.Fatal(err)
			}
			rMB, err := s.Result(b, core.MBDistr())
			if err != nil {
				t.Fatal(err)
			}
			if rIF.Cycles != rMB.Cycles {
				t.Errorf("%s: IF_distr %d cycles != MB_distr %d", b, rIF.Cycles, rMB.Cycles)
			}
		}
	})

	t.Run("MBDistrBeatsIFDistrFP", func(t *testing.T) {
		// Figure 8's headline.
		ifHM := hm(trace.SuiteFP, core.IFDistr())
		mbHM := hm(trace.SuiteFP, core.MBDistr())
		if mbHM <= ifHM*1.02 {
			t.Errorf("MB_distr HM %.3f not clearly above IF_distr %.3f", mbHM, ifHM)
		}
	})

	t.Run("WakeupDominatesBaselineEnergy", func(t *testing.T) {
		// Figure 9: wakeup is the largest baseline component for FP.
		var wakeup, total float64
		for _, b := range trace.Benchmarks(trace.SuiteFP) {
			r, err := s.Result(b, core.Baseline64())
			if err != nil {
				t.Fatal(err)
			}
			wakeup += r.Breakdown().Get(power.Wakeup)
			total += r.IQEnergy
		}
		if frac := wakeup / total; frac < 0.40 {
			t.Errorf("wakeup fraction %.2f below expectation", frac)
		}
	})

	t.Run("DistrSchemesSaveEnergy", func(t *testing.T) {
		// Figure 13: both distributed schemes far below baseline; and
		// MB_distr spends somewhat more than IF_distr on FP.
		var eBase, eIF, eMB float64
		for _, b := range trace.Benchmarks(trace.SuiteFP) {
			rb, err := s.Result(b, core.Baseline64())
			if err != nil {
				t.Fatal(err)
			}
			ri, err := s.Result(b, core.IFDistr())
			if err != nil {
				t.Fatal(err)
			}
			rm, err := s.Result(b, core.MBDistr())
			if err != nil {
				t.Fatal(err)
			}
			eBase += rb.IQEnergy
			eIF += ri.IQEnergy
			eMB += rm.IQEnergy
		}
		if eIF > 0.6*eBase || eMB > 0.75*eBase {
			t.Errorf("distributed schemes not saving energy: IF %.2f, MB %.2f of baseline",
				eIF/eBase, eMB/eBase)
		}
		if eMB <= eIF {
			t.Errorf("MB_distr energy %.0f not above IF_distr %.0f (paper: slightly more)",
				eMB, eIF)
		}
	})

	t.Run("MBDistrBeatsIFDistrEfficiency", func(t *testing.T) {
		// Figures 14/15: MB_distr wins ED and ED² over IF_distr on FP.
		var edIF, edMB, ed2IF, ed2MB float64
		for _, b := range trace.Benchmarks(trace.SuiteFP) {
			rb, err := s.Result(b, core.Baseline64())
			if err != nil {
				t.Fatal(err)
			}
			ri, err := s.Result(b, core.IFDistr())
			if err != nil {
				t.Fatal(err)
			}
			rm, err := s.Result(b, core.MBDistr())
			if err != nil {
				t.Fatal(err)
			}
			edIF += metrics.EnergyDelay(rb.Run, ri.Run) / metrics.EnergyDelay(rb.Run, rb.Run)
			edMB += metrics.EnergyDelay(rb.Run, rm.Run) / metrics.EnergyDelay(rb.Run, rb.Run)
			ed2IF += metrics.EnergyDelay2(rb.Run, ri.Run) / metrics.EnergyDelay2(rb.Run, rb.Run)
			ed2MB += metrics.EnergyDelay2(rb.Run, rm.Run) / metrics.EnergyDelay2(rb.Run, rb.Run)
		}
		if edMB >= edIF {
			t.Errorf("MB_distr ED %.3f not below IF_distr %.3f", edMB, edIF)
		}
		if ed2MB >= ed2IF {
			t.Errorf("MB_distr ED2 %.3f not below IF_distr %.3f", ed2MB, ed2IF)
		}
	})
}

// TestHeadlineCorridors pins the headline harmonic-mean IPC losses
// inside generous corridors, about ±60% around the values of single-seed
// runs of 8k + 40k instructions, so silent regressions in the models,
// schemes or pipeline are caught without making the suite brittle to
// small retunings. The corridors are not seed-replicated confidence
// intervals; the reproduction-ledger item in ROADMAP.md is to derive
// them from one.
func TestHeadlineCorridors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSession(Options{Warmup: 8_000, Instructions: 40_000})
	hmLoss := func(suite trace.Suite, cfg core.Config) float64 {
		base, err := s.SuiteRuns(suite, core.Unbounded())
		if err != nil {
			t.Fatal(err)
		}
		runs, err := s.SuiteRuns(suite, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return 100 * (1 - metrics.HarmonicMeanIPC(runs)/metrics.HarmonicMeanIPC(base))
	}
	corridors := []struct {
		name   string
		suite  trace.Suite
		cfg    core.Config
		lo, hi float64
	}{
		// Single-seed 8k + 40k values with about ±60% slack.
		{"IssueFIFO int 8x8", trace.SuiteInt, core.IssueFIFOCfg(8, 8, 16, 16), 5, 25},
		{"IssueFIFO fp 8x16", trace.SuiteFP, core.IssueFIFOCfg(16, 16, 8, 16), 9, 30},
		{"LatFIFO fp 8x16", trace.SuiteFP, core.LatFIFOCfg(16, 16, 8, 16), 5, 22},
		{"MixBUFF fp 8x16", trace.SuiteFP, core.MixBUFFCfg(16, 16, 8, 16, 0), 3, 18},
		{"IF_distr fp", trace.SuiteFP, core.IFDistr(), 9, 32},
		{"MB_distr fp", trace.SuiteFP, core.MBDistr(), 4, 20},
		{"IQ_64_64 fp", trace.SuiteFP, core.Baseline64(), -2, 6},
	}
	for _, c := range corridors {
		got := hmLoss(c.suite, c.cfg)
		if got < c.lo || got > c.hi {
			t.Errorf("%s: HM loss %.1f%% outside corridor [%.0f, %.0f]",
				c.name, got, c.lo, c.hi)
		}
	}
}
