package study

import (
	"context"
	"fmt"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/metrics"
	"distiq/internal/scenario"
)

// PointUpdate is one resolved simulation point of a running study,
// delivered to Options.OnPoint in deterministic plan order.
type PointUpdate struct {
	// Seq is the point's position in the study's overall plan order
	// (strictly increasing from 0).
	Seq int
	// Stage names the study stage that owns the point: the variant name
	// for ablation/replication, "round-N" for frontier rounds (round 0
	// is the coarse seed grid).
	Stage string
	// Benchmark and Values locate the point within its stage's grid.
	Benchmark string
	Values    []string
	// Result and Source are the point's outcome and how it resolved.
	Result engine.Result
	Source engine.Source
}

// Options tunes a study run.
type Options struct {
	// OnPoint, when set, receives every resolved point in plan order —
	// the hook the service's streaming endpoint and CLI progress are
	// built on.
	OnPoint func(PointUpdate)
}

// Run executes the study against any Client — the in-process engine or
// a remote distiqd — and returns its deterministic table.
func Run(ctx context.Context, cl client.Client, spec *Spec) (*Result, error) {
	return RunOpts(ctx, cl, spec, Options{})
}

// RunOpts is Run with explicit options.
func RunOpts(ctx context.Context, cl client.Client, spec *Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Name: spec.Name, Mode: spec.Mode}
	r := &runner{ctx: ctx, cl: cl, opts: opts, res: res}
	var err error
	switch spec.Mode {
	case ModeAblation:
		err = r.runAblation(spec)
	case ModeReplication:
		err = r.runReplication(spec)
	case ModeFrontier:
		err = r.runFrontier(spec)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runner threads the shared run state — the client, the point sequence
// counter and the accumulating result — through a study's stages.
type runner struct {
	ctx  context.Context
	cl   client.Client
	opts Options
	res  *Result
	seq  int
}

// sweep resolves one stage's scenario spec through the client, folding
// every point into the study's job/result/counts accumulators and the
// OnPoint hook. Results come back in grid order.
func (r *runner) sweep(stage string, sp *scenario.Spec) ([]engine.Result, error) {
	grid, err := sp.Expand()
	if err != nil {
		return nil, fmt.Errorf("study: stage %q: %w", stage, err)
	}
	st := r.cl.Sweep(r.ctx, grid)
	results := make([]engine.Result, 0, grid.Size())
	for st.Next() {
		u := st.Update()
		results = append(results, u.Result)
		if r.opts.OnPoint != nil {
			r.opts.OnPoint(PointUpdate{
				Seq: r.seq, Stage: stage,
				Benchmark: u.Point.Bench, Values: u.Point.Values,
				Result: u.Result, Source: u.Source,
			})
		}
		r.seq++
	}
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("study: stage %q: %w", stage, err)
	}
	r.res.Counts.Simulated += st.Counts().Simulated
	r.res.Counts.MemoryHits += st.Counts().MemoryHits
	r.res.Counts.DiskHits += st.Counts().DiskHits
	r.res.Counts.Shared += st.Counts().Shared
	r.res.Jobs = append(r.res.Jobs, grid.Jobs()...)
	r.res.Results = append(r.res.Results, results...)
	return results, nil
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

// runAblation sweeps the baseline and every variant (each a
// single-configuration grid over the study's benchmarks) and renders the
// variant × metric table with per-variant deltas against the baseline.
func (r *runner) runAblation(spec *Spec) error {
	names, specs, err := spec.variantSpecs(nil)
	if err != nil {
		return err
	}
	summaries := make([]variantSummary, len(names))
	for i, sp := range specs {
		results, err := r.sweep(names[i], sp)
		if err != nil {
			return err
		}
		summaries[i] = summarize(results)
	}
	base := summaries[0]
	r.res.Columns = []string{"variant", "config", "ipc_hmean", "iq_energy_pj", "d_ipc_pct", "d_energy_pct"}
	r.res.numeric = []bool{false, false, true, true, true, true}
	for i, s := range summaries {
		r.res.Rows = append(r.res.Rows, []string{
			names[i], s.config,
			fixed(s.ipc, 4), fixed(s.energy, 1),
			fixed(deltaPct(s.ipc, base.ipc), 2),
			fixed(deltaPct(s.energy, base.energy), 2),
		})
	}
	return nil
}

// runReplication fans the baseline and every variant across the
// replication seeds and renders per-benchmark mean / stddev / 95% CI
// columns, so scheme comparisons carry statistical weight.
func (r *runner) runReplication(spec *Spec) error {
	seeds := spec.seedList()
	names, specs, err := spec.variantSpecs(seeds)
	if err != nil {
		return err
	}
	r.res.Columns = []string{
		"variant", "config", "benchmark", "n",
		"ipc_mean", "ipc_sd", "ipc_ci95",
		"energy_mean", "energy_sd", "energy_ci95",
	}
	r.res.numeric = []bool{false, false, false, true, true, true, true, true, true, true}
	for i, sp := range specs {
		results, err := r.sweep(names[i], sp)
		if err != nil {
			return err
		}
		grid, err := sp.Expand()
		if err != nil {
			return err
		}
		// Grid order is seed-outer, benchmark-inner: results[s*B + b] is
		// benchmark b under seed s. Regroup per benchmark across seeds.
		nb := len(grid.Points) / len(seeds)
		for b := 0; b < nb; b++ {
			ipcs := make([]float64, len(seeds))
			energies := make([]float64, len(seeds))
			for s := range seeds {
				res := results[s*nb+b]
				ipcs[s] = res.IPC()
				energies[s] = res.IQEnergy
			}
			r.res.Rows = append(r.res.Rows, []string{
				names[i], results[b].Config, grid.Points[b].Bench,
				fmt.Sprintf("%d", len(seeds)),
				fixed(mean(ipcs), 4), fixed(sampleSD(ipcs), 4), fixed(ci95(ipcs), 4),
				fixed(mean(energies), 1), fixed(sampleSD(energies), 1), fixed(ci95(energies), 1),
			})
		}
	}
	return nil
}
