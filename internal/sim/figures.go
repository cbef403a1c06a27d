package sim

import (
	"fmt"

	"distiq/internal/core"
	"distiq/internal/metrics"
	"distiq/internal/power"
	"distiq/internal/trace"
)

// fifoSweep is the paper's queue sweep: {8,10,12} queues × {8,16} entries.
var fifoSweep = [][2]int{{8, 8}, {8, 16}, {10, 8}, {10, 16}, {12, 8}, {12, 16}}

// evaluatedConfigs are the three schemes of the evaluation section.
func evaluatedConfigs() []core.Config {
	return []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()}
}

// Figure regenerates figure n of the paper (2-4, 6-15). Figure 5 is the
// selection-mechanism example, reproduced by the unit test
// TestSelectPaperExample in internal/core rather than by simulation;
// Figure 1 is the conventional CAM entry diagram.
func Figure(n int, s *Session) (Table, error) {
	switch n {
	case 2:
		return s.lossSweep("Figure 2: IPC loss of IssueFIFO vs unbounded baseline (SPECINT)",
			trace.SuiteInt, func(a, b int) core.Config { return core.IssueFIFOCfg(a, b, 16, 16) })
	case 3:
		return s.lossSweep("Figure 3: IPC loss of IssueFIFO vs unbounded baseline (SPECFP)",
			trace.SuiteFP, func(c, d int) core.Config { return core.IssueFIFOCfg(16, 16, c, d) })
	case 4:
		return s.lossSweep("Figure 4: IPC loss of LatFIFO vs unbounded baseline (SPECFP)",
			trace.SuiteFP, func(c, d int) core.Config { return core.LatFIFOCfg(16, 16, c, d) })
	case 6:
		return s.lossSweep("Figure 6: IPC loss of MixBUFF vs unbounded baseline (SPECFP)",
			trace.SuiteFP, func(c, d int) core.Config { return core.MixBUFFCfg(16, 16, c, d, 0) })
	case 7:
		return s.ipcFigure("Figure 7: IPC for the integer benchmarks", trace.SuiteInt)
	case 8:
		return s.ipcFigure("Figure 8: IPC for the FP benchmarks", trace.SuiteFP)
	case 9:
		return s.breakdownFigure("Figure 9: energy breakdown for IQ_64_64", core.Baseline64())
	case 10:
		return s.breakdownFigure("Figure 10: energy breakdown for IF_distr", core.IFDistr())
	case 11:
		return s.breakdownFigure("Figure 11: energy breakdown for MB_distr", core.MBDistr())
	case 12:
		return s.efficiencyFigure("Figure 12: normalized issue-queue power", metricPower)
	case 13:
		return s.efficiencyFigure("Figure 13: normalized issue-queue energy", metricEnergy)
	case 14:
		return s.efficiencyFigure("Figure 14: normalized processor energy-delay", metricED)
	case 15:
		return s.efficiencyFigure("Figure 15: normalized processor energy-delay^2", metricED2)
	}
	return Table{}, fmt.Errorf("sim: no figure %d (valid: 2-4, 6-15)", n)
}

// FigureNumbers lists the figures Figure can regenerate.
func FigureNumbers() []int { return []int{2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15} }

// lossSweep builds the section 3 sweep figures: per-benchmark IPC loss (%)
// against the unbounded baseline, one column per queue configuration, plus
// a harmonic-mean row.
func (s *Session) lossSweep(title string, suite trace.Suite, mk func(q, e int) core.Config) (Table, error) {
	t := Table{Title: title, RowName: "benchmark",
		Note: "% IPC loss w.r.t. unbounded conventional issue queue"}
	configs := make([]core.Config, 0, len(fifoSweep))
	for _, qe := range fifoSweep {
		cfg := mk(qe[0], qe[1])
		configs = append(configs, cfg)
		t.Columns = append(t.Columns, fmt.Sprintf("%dx%d", qe[0], qe[1]))
	}
	base := core.Unbounded()
	// Resolve the whole benchmark × configuration grid through the
	// engine's worker pool; the loops below then assemble the table from
	// cache hits, in deterministic order.
	if err := s.Prefetch(trace.Benchmarks(suite), append([]core.Config{base}, configs...)...); err != nil {
		return Table{}, err
	}
	for _, b := range trace.Benchmarks(suite) {
		baseRun, err := s.Result(b, base)
		if err != nil {
			return Table{}, err
		}
		row := make([]float64, 0, len(configs))
		for _, cfg := range configs {
			r, err := s.Result(b, cfg)
			if err != nil {
				return Table{}, err
			}
			row = append(row, 100*metrics.IPCLoss(baseRun.Run, r.Run))
		}
		t.AddRow(b, row...)
	}
	// Harmonic-mean loss row.
	baseRuns, err := s.SuiteRuns(suite, base)
	if err != nil {
		return Table{}, err
	}
	hmBase := metrics.HarmonicMeanIPC(baseRuns)
	hmRow := make([]float64, 0, len(configs))
	for _, cfg := range configs {
		runs, err := s.SuiteRuns(suite, cfg)
		if err != nil {
			return Table{}, err
		}
		hmRow = append(hmRow, 100*(1-metrics.HarmonicMeanIPC(runs)/hmBase))
	}
	t.AddRow("HMEAN", hmRow...)
	return t, nil
}

// ipcFigure builds Figures 7/8: absolute IPC per benchmark for the three
// evaluated schemes, plus the harmonic mean.
func (s *Session) ipcFigure(title string, suite trace.Suite) (Table, error) {
	t := Table{Title: title, RowName: "benchmark", Note: "IPC"}
	configs := evaluatedConfigs()
	for _, cfg := range configs {
		t.Columns = append(t.Columns, cfg.Name)
	}
	if err := s.Prefetch(trace.Benchmarks(suite), configs...); err != nil {
		return Table{}, err
	}
	for _, b := range trace.Benchmarks(suite) {
		row := make([]float64, 0, len(configs))
		for _, cfg := range configs {
			r, err := s.Result(b, cfg)
			if err != nil {
				return Table{}, err
			}
			row = append(row, r.IPC())
		}
		t.AddRow(b, row...)
	}
	hm := make([]float64, 0, len(configs))
	for _, cfg := range configs {
		runs, err := s.SuiteRuns(suite, cfg)
		if err != nil {
			return Table{}, err
		}
		hm = append(hm, metrics.HarmonicMeanIPC(runs))
	}
	t.AddRow("HARMEAN", hm...)
	return t, nil
}

// breakdownOrder fixes the row order of Figures 9-11 (the paper's legend
// order, bottom to top).
var breakdownOrder = []power.Component{
	power.Wakeup, power.Buff, power.FIFO, power.Qrename, power.RegsReady, power.Select,
	power.Chains, power.Reg, power.MuxIntALU, power.MuxIntMUL, power.MuxFPALU, power.MuxFPMUL,
}

// breakdownFigure builds Figures 9-11: the percentage contribution of each
// issue-logic component to total issue-logic energy, aggregated per suite.
func (s *Session) breakdownFigure(title string, cfg core.Config) (Table, error) {
	t := Table{Title: title, RowName: "component",
		Note:    "% of issue-logic energy, per suite",
		Columns: []string{"SPECINT", "SPECFP"}}
	if err := s.Prefetch(trace.AllBenchmarks(), cfg); err != nil {
		return Table{}, err
	}
	// totals sums each suite's breakdowns; sums adds every component of
	// every benchmark in component order, so each suite's total is the
	// same from run to run.
	var totals [2]power.Breakdown
	var sums [2]float64
	for si, suite := range []trace.Suite{trace.SuiteInt, trace.SuiteFP} {
		for _, b := range trace.Benchmarks(suite) {
			r, err := s.Result(b, cfg)
			if err != nil {
				return Table{}, err
			}
			bd := r.Breakdown()
			totals[si].Add(bd)
			for c := range power.NumComponents {
				sums[si] += bd.Get(c)
			}
		}
	}
	for _, comp := range breakdownOrder {
		if !totals[0].Charged(comp) && !totals[1].Charged(comp) {
			continue
		}
		var row [2]float64
		for si := range row {
			if sums[si] > 0 {
				row[si] = 100 * totals[si].Get(comp) / sums[si]
			}
		}
		t.AddRow(comp.String(), row[0], row[1])
	}
	return t, nil
}

// efficiency metrics selectable for Figures 12-15.
type effMetric int

const (
	metricPower effMetric = iota
	metricEnergy
	metricED
	metricED2
)

// efficiencyFigure builds Figures 12-15: per-suite means of per-benchmark
// metric values normalized to the IQ_64_64 baseline.
func (s *Session) efficiencyFigure(title string, m effMetric) (Table, error) {
	t := Table{Title: title, RowName: "config",
		Note:    "normalized to IQ_64_64 (per-benchmark, suite mean)",
		Columns: []string{"SPECINT", "SPECFP"}}
	base := core.Baseline64()
	if err := s.Prefetch(trace.AllBenchmarks(),
		append([]core.Config{base}, evaluatedConfigs()...)...); err != nil {
		return Table{}, err
	}
	for _, cfg := range evaluatedConfigs() {
		var row [2]float64
		for si, suite := range []trace.Suite{trace.SuiteInt, trace.SuiteFP} {
			names := trace.Benchmarks(suite)
			sum := 0.0
			for _, b := range names {
				br, err := s.Result(b, base)
				if err != nil {
					return Table{}, err
				}
				r, err := s.Result(b, cfg)
				if err != nil {
					return Table{}, err
				}
				switch m {
				case metricPower:
					sum += metrics.Normalized(br.IQPower(), r.IQPower())
				case metricEnergy:
					sum += metrics.Normalized(br.IQEnergy, r.IQEnergy)
				case metricED:
					sum += metrics.Normalized(metrics.EnergyDelay(br.Run, br.Run),
						metrics.EnergyDelay(br.Run, r.Run))
				case metricED2:
					sum += metrics.Normalized(metrics.EnergyDelay2(br.Run, br.Run),
						metrics.EnergyDelay2(br.Run, r.Run))
				}
			}
			row[si] = sum / float64(len(names))
		}
		t.AddRow(cfg.Name, row[0], row[1])
	}
	return t, nil
}

// Table1 renders the processor configuration of the paper's Table 1 as
// implemented by this simulator.
func Table1() string {
	return `Table 1. Processor configuration
  Fetch, decode and commit width   8 instructions
  Issue width                      8 integer + 8 FP instructions
  Branch predictor                 hybrid: 2K gshare + 2K bimodal + 1K selector
  BTB                              2048 entries, 4-way set associative
  L1 Icache                        64K, 2-way, 32 byte/line, 1 cycle
  L1 Dcache                        32K, 4-way, 32 byte/line, 2 cycles, 4 R/W ports
  L2 unified cache                 512K, 4-way, 64 byte/line, 10 cycles
  Main memory                      64-byte bandwidth, 100 cycles first chunk, 2 inter-chunk
  Fetch queue                      64 entries
  Reorder buffer                   256 entries
  Registers                        160 INT + 160 FP
  INT functional units             8 ALU (1 cycle), 4 mult/div (3-cycle mult, 20-cycle div)
  FP functional units              4 ALU (2 cycles), 4 mult/div (4-cycle mult, 12-cycle div)
  Technology                       0.10 um (energy model constants)
`
}
