package study

import (
	"context"
	"fmt"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/metrics"
	"distiq/internal/scenario"
)

// Run executes the study against any Client — the in-process engine or
// a remote distiqd — and returns its deterministic table. Each variant
// is one single-configuration grid, swept baseline first and drained in
// grid order.
func Run(ctx context.Context, cl client.Client, spec *Spec) (*Result, error) {
	names, grids, err := spec.plan()
	if err != nil {
		return nil, err
	}
	res := &Result{Name: spec.Name, Mode: spec.Mode}
	sets := make([]*scenario.ResultSet, len(grids))
	for i, g := range grids {
		st := cl.Sweep(ctx, g)
		if sets[i], err = st.ResultSet(); err != nil {
			return nil, fmt.Errorf("study: variant %q: %w", names[i], err)
		}
		c := st.Counts()
		res.Counts.Simulated += c.Simulated
		res.Counts.MemoryHits += c.MemoryHits
		res.Counts.DiskHits += c.DiskHits
		res.Counts.Shared += c.Shared
		res.Jobs = append(res.Jobs, g.Jobs()...)
		res.Results = append(res.Results, sets[i].Results...)
	}
	if spec.Mode == ModeAblation {
		res.ablationTable(names, sets)
	} else {
		res.replicationTable(names, sets, len(spec.seedList()))
	}
	return res, nil
}

// variantSummary is one variant's aggregate metrics: harmonic-mean IPC
// across its benchmarks and arithmetic-mean issue-queue energy per
// benchmark.
type variantSummary struct {
	config string
	ipc    float64
	energy float64
}

// summarize aggregates one variant's per-benchmark results.
func summarize(results []engine.Result) variantSummary {
	runs := make([]metrics.Run, len(results))
	energies := make([]float64, len(results))
	for i, res := range results {
		runs[i] = res.Run
		energies[i] = res.IQEnergy
	}
	s := variantSummary{
		ipc:    metrics.HarmonicMeanIPC(runs),
		energy: mean(energies),
	}
	if len(results) > 0 {
		s.config = results[0].Config
	}
	return s
}

// ablationTable renders the variant × metric table with per-variant
// deltas against the baseline (the first set).
func (r *Result) ablationTable(names []string, sets []*scenario.ResultSet) {
	summaries := make([]variantSummary, len(sets))
	for i, rs := range sets {
		summaries[i] = summarize(rs.Results)
	}
	base := summaries[0]
	r.Columns = []string{"variant", "config", "ipc_hmean", "iq_energy_pj", "d_ipc_pct", "d_energy_pct"}
	r.numeric = []bool{false, false, true, true, true, true}
	for i, s := range summaries {
		r.Rows = append(r.Rows, []string{
			names[i], s.config,
			fixed(s.ipc, 4), fixed(s.energy, 1),
			fixed(deltaPct(s.ipc, base.ipc), 2),
			fixed(deltaPct(s.energy, base.energy), 2),
		})
	}
}

// replicationTable renders per-benchmark mean / stddev / 95% CI columns
// for every variant across its nseeds replication seeds, so scheme
// comparisons carry statistical weight.
func (r *Result) replicationTable(names []string, sets []*scenario.ResultSet, nseeds int) {
	r.Columns = []string{
		"variant", "config", "benchmark", "n",
		"ipc_mean", "ipc_sd", "ipc_ci95",
		"energy_mean", "energy_sd", "energy_ci95",
	}
	r.numeric = []bool{false, false, false, true, true, true, true, true, true, true}
	for i, rs := range sets {
		// Grid order is seed-outer, benchmark-inner: Results[s*B + b] is
		// benchmark b under seed s. Regroup per benchmark across seeds.
		nb := len(rs.Results) / nseeds
		for b := 0; b < nb; b++ {
			ipcs := make([]float64, nseeds)
			energies := make([]float64, nseeds)
			for s := range ipcs {
				res := rs.Results[s*nb+b]
				ipcs[s] = res.IPC()
				energies[s] = res.IQEnergy
			}
			r.Rows = append(r.Rows, []string{
				names[i], rs.Results[b].Config, rs.Grid.Points[b].Bench,
				fmt.Sprintf("%d", nseeds),
				fixed(mean(ipcs), 4), fixed(sampleSD(ipcs), 4), fixed(ci95(ipcs), 4),
				fixed(mean(energies), 1), fixed(sampleSD(energies), 1), fixed(ci95(energies), 1),
			})
		}
	}
}
