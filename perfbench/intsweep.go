package main

import (
	"context"
	"fmt"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/obs"
	"distiq/internal/scenario"
)

// int-sweep: back-to-back Client.Sweep calls on a client.Local with one
// worker per CPU. Each sweep is six SPECINT models under IQ_64_64,
// IF_distr and MB_distr at three ROB sizes — nine co-batchable points per
// benchmark — on a fresh client and a fresh replication seed, so no trace
// and no result exists when it starts, as in a new iqsweep process.
var intSweep = workload{
	name:  "int-sweep",
	setup: setupIntSweep,
}

var (
	intBenches = []string{"gcc", "mcf", "bzip2", "parser", "twolf", "vortex"}
	intOpt     = engine.Options{Warmup: 5_000, Instructions: 30_000}
)

// intGrid is the sweep's grid under one replication seed.
func intGrid(seed uint64) *scenario.Grid {
	spec := scenario.New("perfbench-int-sweep").
		WithBenchmarks(intBenches...).
		WithNamed("IQ_64_64", "IF_distr", "MB_distr").
		WithROB(64, 128, 256).
		WithLengths(intOpt.Warmup, intOpt.Instructions)
	if seed != 0 {
		spec.WithSeeds(seed)
	}
	g, err := spec.Expand()
	if err != nil {
		panic(err) // a fixed, valid spec
	}
	return g
}

type intSession struct {
	workers int
	seed    uint64
	sweeps  int // sweeps started so far; the next one's k
	// first holds sweep 0's results, the ones the pinned digest covers;
	// last is the latest sweep's, for the uncached sample.
	first, last []engine.Result
	lastGrid    *scenario.Grid
	regs        []*obs.Registry
	batchGroups int64
	batchedJobs int64
}

// setupIntSweep warms the process with one lockstep group shaped like
// the grid's (nine points) on a benchmark outside it (gzip), so the timed
// sweeps start on warm code without any of their traces. The warm-up is
// not a workload input: its streams are the same for every workload seed
// (fresh per set-up), so set-up time does not vary with the seed.
func setupIntSweep(cfg *runConfig, variant int) (session, error) {
	s := &intSession{workers: cfg.workers, seed: cfg.seed}
	spec := scenario.New("perfbench-warmup").
		WithBenchmarks("gzip").
		WithNamed("IQ_64_64", "IF_distr", "MB_distr").
		WithROB(64, 128, 256).
		WithLengths(intOpt.Warmup, intOpt.Instructions).
		WithSeeds(derive(0, 1<<20|uint64(variant)))
	g, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	cl := client.NewLocal(client.WithParallel(cfg.workers))
	if _, err := cl.Sweep(context.Background(), g).ResultSet(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepRun is one timed sweep.
type sweepRun struct {
	wall, first time.Duration
	size        int // grid points
	results     []engine.Result
	simInsts    uint64
	eng         *engine.Engine
}

// sweep runs sweep k on a fresh engine; reg, when non-nil, receives the
// engine's metrics.
func (s *intSession) sweep(ctx context.Context, k int, noBatch bool, reg *obs.Registry, tr *tracer) (sweepRun, error) {
	t0 := time.Now()
	grid := intGrid(derive(s.seed, uint64(k)))
	t1 := time.Now()
	eng := engine.New(engine.Config{Workers: s.workers, Obs: reg, NoBatch: noBatch})
	cl := client.NewLocalOn(eng)
	run := sweepRun{eng: eng, size: grid.Size(), results: make([]engine.Result, 0, grid.Size())}
	st := cl.Sweep(ctx, grid)
	for st.Next() {
		u := st.Update()
		if len(run.results) == 0 {
			run.first = time.Since(t1)
		}
		run.results = append(run.results, u.Result)
		if u.Source == engine.SourceSimulated {
			run.simInsts += u.Result.Insts
		}
	}
	t2 := time.Now()
	run.wall = t2.Sub(t1)
	parent := tr.record("client.Sweep", 0, t1, t2)
	tr.record("scenario.Expand", parent, t0, t1)
	if err := st.Err(); err != nil {
		return run, err
	}
	s.lastGrid, s.last = grid, run.results
	return run, nil
}

func (s *intSession) window(ctx context.Context, d time.Duration, tr *tracer) (windowStats, error) {
	var ws windowStats
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
			s.regs = append(s.regs, reg)
		}
		k := s.sweeps
		s.sweeps++
		run, err := s.sweep(ctx, k, false, reg, tr)
		ws.points += len(run.results)
		if err != nil {
			ws.fail(run.size-len(run.results), fmt.Errorf("int-sweep sweep %d: %w", k, err))
			continue
		}
		ws.simInsts += run.simInsts
		ws.requests = append(ws.requests, run.wall)
		ws.firstPoint = append(ws.firstPoint, run.first)
		if k == 0 {
			s.first = run.results
		}
		if tr != nil {
			s.batchGroups += run.eng.BatchGroups()
			s.batchedJobs += run.eng.Stats().Batched
		}
	}
	ws.wall = time.Since(start)
	return ws, nil
}

func (s *intSession) digest() string { return digest(s.first) }

func (s *intSession) modelResults() []engine.Result { return s.first }

// verify checks sweep 0 against the pinned digest and re-simulates one
// point of the latest sweep without the trace cache or lockstep kernel.
func (s *intSession) verify(cfg *runConfig) []check {
	var checks []check
	if cfg.pinned != "" {
		checks = append(checks, pinCheck(s.digest(), cfg.pinned))
	}
	if s.last == nil {
		return append(checks, check{Name: "uncached-sample", Detail: "no sweep completed"})
	}
	i := int(cfg.seed % uint64(len(s.last)))
	return append(checks, uncachedCheck(s.lastGrid.Jobs()[i], s.last[i]))
}

// layerMetrics adds the engine's metrics over the traced sweeps and the
// no-batch ratio: pairs of sweeps on fresh seeds, one with the lockstep
// kernel and one without, in alternating order.
func (s *intSession) layerMetrics(ctx context.Context, cfg *runConfig, m metrics, tr *tracer, traced windowStats) error {
	engineMetrics(m, simHists(s.regs), cfg.workers, traced.wall)
	m.set("engine.batch_groups", "count", float64(s.batchGroups))
	m.set("engine.batched_jobs", "count", float64(s.batchedJobs))
	m.set("scenario.expand_us_p50", "us", median(tr.durations("scenario.Expand", 1e6)))
	var ratios []float64
	for p := 0; p < nobatchPairs; p++ {
		var walls [2]time.Duration // [batched, unbatched]
		for j := 0; j < 2; j++ {
			noBatch := (p+j)%2 == 1
			k := s.sweeps
			s.sweeps++
			run, err := s.sweep(ctx, k, noBatch, nil, nil)
			if err != nil {
				return err
			}
			if noBatch {
				walls[1] = run.wall
			} else {
				walls[0] = run.wall
			}
		}
		ratios = append(ratios, walls[1].Seconds()/walls[0].Seconds())
	}
	m.set("engine.nobatch_ratio", "ratio", median(ratios))
	m.set("engine.nobatch_ratio_iqr", "ratio", quantile(ratios, 0.75)-quantile(ratios, 0.25))
	return nil
}

// nobatchPairs is how many batched/unbatched sweep pairs the traced run
// makes for engine.nobatch_ratio.
const nobatchPairs = 5

func (s *intSession) close() error { return nil }
