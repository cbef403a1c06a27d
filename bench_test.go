// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigN runs the corresponding experiment and
// reports the figure's headline quantity through b.ReportMetric, so
//
//	go test -bench=Fig -benchtime=1x
//
// reproduces the whole evaluation. A package-level session memoizes
// simulations across benchmarks (the figures share their baselines), and
// the per-run instruction counts are kept small; use cmd/iqfig for
// longer, tighter runs.
package distiq_test

import (
	"sync"
	"testing"

	"distiq"
	"distiq/internal/metrics"
	"distiq/internal/pipeline"
	"distiq/internal/trace"
)

// newGenerator builds a workload generator for direct pipeline runs.
func newGenerator(b *testing.B, bench string) pipeline.Fetcher {
	b.Helper()
	return trace.NewGenerator(trace.MustByName(bench))
}

var (
	benchSession     *distiq.Session
	benchSessionOnce sync.Once
)

func session() *distiq.Session {
	benchSessionOnce.Do(func() {
		benchSession = distiq.NewSession(distiq.Options{Warmup: 5_000, Instructions: 25_000})
	})
	return benchSession
}

// figureBench runs figure n once per iteration and reports metric from the
// table through report.
func figureBench(b *testing.B, n int, report func(distiq.Table) (string, float64)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := distiq.Figure(n, session())
		if err != nil {
			b.Fatal(err)
		}
		name, v := report(tab)
		b.ReportMetric(v, name)
	}
}

// lastRowValue returns the final row's (HMEAN/HARMEAN) value at column c.
func lastRowValue(tab distiq.Table, c int) float64 {
	return tab.Rows[len(tab.Rows)-1].Values[c]
}

// BenchmarkTable1Processor prints nothing but verifies the Table 1
// configuration builds and reports the baseline SPECFP harmonic-mean IPC.
func BenchmarkTable1Processor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := session().SuiteRuns(distiq.SuiteFP, distiq.Baseline64())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metrics.HarmonicMeanIPC(runs), "hm-ipc")
	}
}

// BenchmarkFig2IssueFIFOInt: IPC loss of IssueFIFO on SPECINT across the
// queue sweep; reports the harmonic-mean loss of the 8x8 configuration.
func BenchmarkFig2IssueFIFOInt(b *testing.B) {
	figureBench(b, 2, func(t distiq.Table) (string, float64) {
		return "loss%-8x8", lastRowValue(t, 0)
	})
}

// BenchmarkFig3IssueFIFOFP: IPC loss of IssueFIFO on SPECFP; reports the
// 8x16 harmonic-mean loss (the paper quotes 24.8%).
func BenchmarkFig3IssueFIFOFP(b *testing.B) {
	figureBench(b, 3, func(t distiq.Table) (string, float64) {
		return "loss%-8x16", lastRowValue(t, 1)
	})
}

// BenchmarkFig4LatFIFOFP: IPC loss of LatFIFO on SPECFP; reports the 8x16
// harmonic-mean loss (paper: 15.2%).
func BenchmarkFig4LatFIFOFP(b *testing.B) {
	figureBench(b, 4, func(t distiq.Table) (string, float64) {
		return "loss%-8x16", lastRowValue(t, 1)
	})
}

// BenchmarkFig6MixBUFFFP: IPC loss of MixBUFF on SPECFP; reports the 8x16
// harmonic-mean loss (paper: 5.2%).
func BenchmarkFig6MixBUFFFP(b *testing.B) {
	figureBench(b, 6, func(t distiq.Table) (string, float64) {
		return "loss%-8x16", lastRowValue(t, 1)
	})
}

// BenchmarkFig7IPCInt: absolute IPC of IQ_64_64 / IF_distr / MB_distr on
// SPECINT; reports the MB_distr harmonic mean.
func BenchmarkFig7IPCInt(b *testing.B) {
	figureBench(b, 7, func(t distiq.Table) (string, float64) {
		return "hm-ipc-MB", lastRowValue(t, 2)
	})
}

// BenchmarkFig8IPCFP: the same on SPECFP (the paper's headline: MB_distr
// loses 7.6% where IF_distr loses 26%).
func BenchmarkFig8IPCFP(b *testing.B) {
	figureBench(b, 8, func(t distiq.Table) (string, float64) {
		return "hm-ipc-MB", lastRowValue(t, 2)
	})
}

// BenchmarkFig9BreakdownBaseline reports the wakeup share of the baseline
// issue-queue energy (SPECFP column).
func BenchmarkFig9BreakdownBaseline(b *testing.B) {
	figureBench(b, 9, func(t distiq.Table) (string, float64) {
		for _, r := range t.Rows {
			if r.Label == "wakeup" {
				return "wakeup%", r.Values[1]
			}
		}
		b.Fatal("no wakeup row")
		return "", 0
	})
}

// BenchmarkFig10BreakdownIFDistr reports the fifo share of IF_distr energy.
func BenchmarkFig10BreakdownIFDistr(b *testing.B) {
	figureBench(b, 10, func(t distiq.Table) (string, float64) {
		for _, r := range t.Rows {
			if r.Label == "fifo" {
				return "fifo%", r.Values[1]
			}
		}
		b.Fatal("no fifo row")
		return "", 0
	})
}

// BenchmarkFig11BreakdownMBDistr reports the chains share of MB_distr
// energy (the paper's new component).
func BenchmarkFig11BreakdownMBDistr(b *testing.B) {
	figureBench(b, 11, func(t distiq.Table) (string, float64) {
		for _, r := range t.Rows {
			if r.Label == "chains" {
				return "chains%", r.Values[1]
			}
		}
		b.Fatal("no chains row")
		return "", 0
	})
}

// BenchmarkFig12Power reports MB_distr normalized issue-queue power (FP).
func BenchmarkFig12Power(b *testing.B) {
	figureBench(b, 12, func(t distiq.Table) (string, float64) {
		return "norm-power-MB", t.Rows[2].Values[1]
	})
}

// BenchmarkFig13Energy reports MB_distr normalized issue-queue energy (FP).
func BenchmarkFig13Energy(b *testing.B) {
	figureBench(b, 13, func(t distiq.Table) (string, float64) {
		return "norm-energy-MB", t.Rows[2].Values[1]
	})
}

// BenchmarkFig14EnergyDelay reports MB_distr normalized processor ED (FP);
// the paper reports 0.95 versus the baseline and an 18% win over IF_distr.
func BenchmarkFig14EnergyDelay(b *testing.B) {
	figureBench(b, 14, func(t distiq.Table) (string, float64) {
		return "norm-ED-MB", t.Rows[2].Values[1]
	})
}

// BenchmarkFig15EnergyDelay2 reports MB_distr normalized ED² (FP); the
// paper reports parity with the baseline and a 35% win over IF_distr.
func BenchmarkFig15EnergyDelay2(b *testing.B) {
	figureBench(b, 15, func(t distiq.Table) (string, float64) {
		return "norm-ED2-MB", t.Rows[2].Values[1]
	})
}

// ---------------------------------------------------------------------
// Engine parallelism benches: the same figure regenerated serially and
// across worker pools. Each iteration builds a fresh session so every
// simulation really runs (no cross-iteration memoization); compare
//
//	go test -bench='Fig8(Serial|Parallel)' -benchtime=3x
//
// wall-clock times to see the multi-core speedup. Output tables are
// byte-identical at any parallelism (TestParallelFigureByteIdentical).
// ---------------------------------------------------------------------

func benchFigureParallel(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := distiq.NewSessionClient(distiq.Options{Warmup: 2_000, Instructions: 10_000},
			distiq.NewLocalClient(distiq.WithParallel(parallel)))
		if _, err := distiq.Figure(8, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Serial(b *testing.B)    { benchFigureParallel(b, 1) }
func BenchmarkFig8Parallel4(b *testing.B) { benchFigureParallel(b, 4) }
func BenchmarkFig8Parallel8(b *testing.B) { benchFigureParallel(b, 8) }

// ---------------------------------------------------------------------
// Ablation benches for the design decisions described in
// docs/ARCHITECTURE.md, "internal/core".
// ---------------------------------------------------------------------

func ablationIPC(b *testing.B, bench string, cfg distiq.Config) float64 {
	b.Helper()
	res, err := distiq.Run(bench, cfg, distiq.Options{Warmup: 5_000, Instructions: 25_000})
	if err != nil {
		b.Fatal(err)
	}
	return res.IPC()
}

// BenchmarkAblationChainsPerQueue sweeps MixBUFF chains per queue on swim;
// the paper fixes 8 chains for MB_distr.
func BenchmarkAblationChainsPerQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, chains := range []int{2, 4, 8, 16} {
			cfg := distiq.MixBUFFCfg(8, 8, 8, 16, chains)
			cfg.Name = cfg.Name + "_c"
			b.ReportMetric(ablationIPC(b, "swim", cfg), "ipc-chains")
			_ = chains
		}
	}
}

// BenchmarkAblationDistributedFU compares MixBUFF with global versus
// distributed functional units (the crossbar-complexity trade).
func BenchmarkAblationDistributedFU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		global := distiq.MixBUFFCfg(8, 8, 8, 16, 8)
		ipcGlobal := ablationIPC(b, "galgel", global)
		ipcDistr := ablationIPC(b, "galgel", distiq.MBDistr())
		b.ReportMetric(100*(1-ipcDistr/ipcGlobal), "distr-loss%")
	}
}

// BenchmarkAblationUnboundedChains compares the paper's 8-chain bound with
// unbounded chains (section 3.2 is evaluated unbounded, MB_distr bounded).
func BenchmarkAblationUnboundedChains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bounded := ablationIPC(b, "mgrid", distiq.MixBUFFCfg(8, 8, 8, 16, 8))
		unbounded := ablationIPC(b, "mgrid", distiq.MixBUFFCfg(8, 8, 8, 16, 0))
		b.ReportMetric(100*(1-bounded/unbounded), "bound-loss%")
	}
}

// BenchmarkAblationMapClearing quantifies the paper's claim that clearing
// the queue-map table on mispredictions costs no measurable performance.
func BenchmarkAblationMapClearing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clearing := distiq.IssueFIFOCfg(8, 8, 8, 16)
		keeping := distiq.IssueFIFOCfg(8, 8, 8, 16)
		keeping.Name += "_keepmap"
		keeping.Int.KeepMapOnMispredict = true
		keeping.FP.KeepMapOnMispredict = true
		ipcClear := ablationIPC(b, "gcc", clearing) // branchy benchmark
		ipcKeep := ablationIPC(b, "gcc", keeping)
		b.ReportMetric(100*(ipcKeep/ipcClear-1), "keepmap-gain%")
	}
}

// BenchmarkAblationFirstTimePriority quantifies MixBUFF's first-time-ready
// selection priority (section 3.2's heuristic for avoiding instructions
// delayed by cache misses or cross-queue dependences).
func BenchmarkAblationFirstTimePriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := distiq.MBDistr()
		without := distiq.MBDistr()
		without.Name += "_flat"
		without.FP.FlatSelectPriority = true
		ipcWith := ablationIPC(b, "equake", with)
		ipcFlat := ablationIPC(b, "equake", without)
		b.ReportMetric(100*(ipcWith/ipcFlat-1), "priority-gain%")
	}
}

// BenchmarkAblationAdaptiveBaseline compares the static IQ_64_64 baseline
// against the Folegnani-González resizing extension: energy saved per IPC
// point lost.
func BenchmarkAblationAdaptiveBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := distiq.Options{Warmup: 5_000, Instructions: 25_000}
		static, err := distiq.Run("swim", distiq.Baseline64(), opt)
		if err != nil {
			b.Fatal(err)
		}
		adaptive, err := distiq.Run("swim", distiq.AdaptiveBaseline64(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-adaptive.IQEnergy/static.IQEnergy), "energy-saved%")
		b.ReportMetric(100*(1-adaptive.IPC()/static.IPC()), "ipc-lost%")
	}
}

// BenchmarkAblationDisambiguation quantifies the conservative AllStoreAddr
// memory-ordering rule (which the paper's issue-time estimator models)
// against oracle disambiguation, on the pointer-heavy mcf model. With
// split stores (address issues independently of data), the gain is near
// zero — evidence that the paper's conservative rule is cheap on codes
// whose store addresses come from fast address arithmetic.
func BenchmarkAblationDisambiguation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(perfect bool) float64 {
			model, err := distiq.WorkloadByName("mcf")
			if err != nil {
				b.Fatal(err)
			}
			_ = model
			cfg := distiq.DefaultProcessor(distiq.Baseline64())
			cfg.PerfectDisambiguation = perfect
			gen := newGenerator(b, "mcf")
			p, err := distiq.NewPipeline(cfg, gen)
			if err != nil {
				b.Fatal(err)
			}
			p.Warmup(5_000)
			p.Run(25_000)
			return p.Stats().IPC()
		}
		conservative := run(false)
		oracle := run(true)
		b.ReportMetric(100*(oracle/conservative-1), "oracle-gain%")
	}
}

// BenchmarkExtensionPreSched compares the Michaud-Seznec prescheduling
// extension against LatFIFO and MixBUFF on one FP benchmark: prescheduling
// recovers almost all of the baseline's IPC from a 16-entry CAM, at the
// complexity cost of a sorted full-window buffer (the trade-off the
// paper's related-work section describes).
func BenchmarkExtensionPreSched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := ablationIPC(b, "galgel", distiq.PreSchedCfg(16, 16, 112, 16))
		mix := ablationIPC(b, "galgel", distiq.MixBUFFCfg(16, 16, 8, 16, 0))
		b.ReportMetric(100*(ps/mix-1), "presched-vs-mixbuff%")
	}
}
