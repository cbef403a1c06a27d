package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/obs"
	"distiq/internal/scenario"
)

// fp-solo: a closed loop of one caller per CPU, each resolving its next
// point with Client.Run on a memory-only client.Local. The points are six
// SPECFP models under five organizations that between them run the CAM,
// adaptive CAM, issue-FIFO, latency-FIFO and MixBUFF code of
// internal/core. Traces are materialized during set-up, so the window
// times the cycle loop; solo Run calls never reach the lockstep kernel.
var fpSolo = workload{
	name:  "fp-solo",
	setup: setupFPSolo,
}

var (
	fpBenches = []string{"swim", "art", "galgel", "applu", "mgrid", "sixtrack"}
	// fpOpt is the scenario layer's default length, long enough that the
	// cycle loop dominates pipeline construction.
	fpOpt = engine.Options{Warmup: scenario.DefaultWarmup, Instructions: scenario.DefaultInstructions}
)

func fpConfigs() []core.Config {
	return []core.Config{
		core.Baseline64(), core.AdaptiveBaseline64(), core.IFDistr(),
		core.LatFIFOCfg(8, 8, 8, 16), core.MBDistr(),
	}
}

// fpJobs lists the workload's points, benchmark-major.
func fpJobs(seed uint64) []engine.Job {
	var jobs []engine.Job
	for _, b := range fpBenches {
		for _, c := range fpConfigs() {
			jobs = append(jobs, engine.Job{Bench: b, Config: c, Opt: fpOpt, Seed: seed})
		}
	}
	return jobs
}

// fpSeedSets is how many seed sets a run rotates its passes through.
// The slowest point of a pass depends on its seed, so one set would make
// a run's latency tail hinge on a single draw; eight sets average it, and
// their traces (8 × 6 streams of about 74k instructions) still fit the
// engine's shared trace cache.
const fpSeedSets = 8

type fpSession struct {
	workers int
	// sets holds each seed set's points; set 0 runs the workload seed.
	sets [][]engine.Job
	// first holds set 0's first complete pass (grid order).
	first []engine.Result
	// passDigests are the digests of every complete pass, per set.
	passDigests [fpSeedSets][]string
	// registries of traced passes' engines, for the simulate histogram.
	regs []*obs.Registry
}

// setupFPSolo materializes every benchmark's shared trace for each of
// the variant's seed sets: one IF_distr simulation (the cheapest of the
// five organizations) per benchmark and set, spread over the workers,
// fills the engine's trace cache past the measured range.
func setupFPSolo(cfg *runConfig, variant int) (session, error) {
	s := &fpSession{workers: cfg.workers}
	var warm []engine.Job
	for k := 0; k < fpSeedSets; k++ {
		seed := derive(cfg.seed, uint64(variant)<<8|uint64(k))
		s.sets = append(s.sets, fpJobs(seed))
		for _, b := range fpBenches {
			warm = append(warm, engine.Job{Bench: b, Config: core.IFDistr(), Opt: fpOpt, Seed: seed})
		}
	}
	var next atomic.Int64
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(warm) {
					return
				}
				_, errs[i] = engine.Simulate(warm[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fpPass is one resolution of every point of a seed set on a fresh
// client, so no point is ever a memory hit.
type fpPass struct {
	set     int
	cl      *client.Local
	reg     *obs.Registry
	results []engine.Result
	done    int
}

// window runs passes over the points back to back, pass p on seed set
// p mod fpSeedSets: callers claim global point indices, and pass p owns
// indices [p*n, (p+1)*n), so no caller waits at a pass boundary.
func (s *fpSession) window(ctx context.Context, d time.Duration, tr *tracer) (windowStats, error) {
	n := len(fpBenches) * len(fpConfigs())
	var (
		mu     sync.Mutex
		passes []*fpPass
		ws     windowStats
		next   atomic.Int64
	)
	pass := func(p int) *fpPass {
		mu.Lock()
		defer mu.Unlock()
		for len(passes) <= p {
			fp := &fpPass{set: len(passes) % fpSeedSets, results: make([]engine.Result, n)}
			if tr != nil {
				fp.reg = obs.NewRegistry()
				fp.cl = client.NewLocalOn(engine.New(engine.Config{Workers: s.workers, Obs: fp.reg}))
			} else {
				fp.cl = client.NewLocal(client.WithParallel(s.workers))
			}
			passes = append(passes, fp)
		}
		return passes[p]
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < s.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				g := int(next.Add(1) - 1)
				fp, i := pass(g/n), g%n
				t0 := time.Now()
				r, err := fp.cl.Run(ctx, s.sets[fp.set][i])
				t1 := time.Now()
				tr.record("client.Run", 0, t0, t1)
				mu.Lock()
				ws.requests = append(ws.requests, t1.Sub(t0))
				if err != nil {
					ws.fail(1, err)
				} else {
					ws.points++
					ws.simInsts += r.Insts
					fp.results[i] = r
					fp.done++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ws.wall = time.Since(start)
	// Every Run is a one-point submission: its first point is its result.
	ws.firstPoint = ws.requests
	for _, fp := range passes {
		if st := fp.cl.Stats(); st.Simulated != int64(fp.done) {
			return ws, fmt.Errorf("fp-solo pass resolved %d of %d points without simulating", int64(fp.done)-st.Simulated, fp.done)
		}
		if fp.reg != nil {
			s.regs = append(s.regs, fp.reg)
		}
		if fp.done == n {
			if s.first == nil && fp.set == 0 {
				s.first = fp.results
			}
			s.passDigests[fp.set] = append(s.passDigests[fp.set], digest(fp.results))
		}
	}
	return ws, nil
}

func (s *fpSession) digest() string {
	if s.first == nil {
		return ""
	}
	return digest(s.first)
}

func (s *fpSession) modelResults() []engine.Result { return s.first }

// verify checks that every complete pass of a seed set delivered the
// same results, that set 0's match the pinned digest, and that one
// sampled point matches an uncached re-simulation.
func (s *fpSession) verify(cfg *runConfig) []check {
	if s.first == nil {
		return []check{{Name: "complete-pass", Detail: "no pass of seed set 0 completed; lengthen --seconds"}}
	}
	var checks []check
	for _, d := range s.passDigests {
		if len(d) > 0 {
			checks = append(checks, passesAgree(d))
		}
	}
	if cfg.pinned != "" {
		checks = append(checks, pinCheck(s.digest(), cfg.pinned))
	}
	i := int(cfg.seed % uint64(len(s.first)))
	checks = append(checks, uncachedCheck(s.sets[0][i], s.first[i]))
	return checks
}

func (s *fpSession) layerMetrics(_ context.Context, cfg *runConfig, m metrics, _ *tracer, traced windowStats) error {
	engineMetrics(m, simHists(s.regs), cfg.workers, traced.wall)
	return nil
}

func (s *fpSession) close() error { return nil }

func passesAgree(digests []string) check {
	for _, d := range digests[1:] {
		if d != digests[0] {
			return check{Name: "passes-agree", Detail: fmt.Sprintf("pass digests differ: %s vs %s", digests[0], d)}
		}
	}
	return check{Name: "passes-agree", OK: true, Detail: fmt.Sprintf("%d passes", len(digests))}
}

func pinCheck(got, want string) check {
	return check{Name: "pinned-digest", OK: got == want, Detail: "got " + got + ", pinned " + want}
}

func uncachedCheck(job engine.Job, got engine.Result) check {
	c := check{Name: "uncached-sample", Detail: fmt.Sprintf("%s under %s seed %d", job.Bench, job.Config.Name, job.Seed)}
	ok, err := checkUncached(job, got)
	if err != nil {
		c.Detail += ": " + err.Error()
	}
	c.OK = ok
	return c
}
