// Package sim runs the paper's experiments: it drives the pipeline over
// the synthetic SPEC2000 models under named issue-queue configurations,
// assembles performance and energy results, and regenerates every table
// and figure of the evaluation section.
//
// Execution is delegated to the Client layer (distiq/internal/client)
// over the concurrent experiment engine: a Session shards independent
// benchmark × configuration jobs across a bounded worker pool,
// deduplicates identical in-flight jobs, and can persist results to an
// on-disk store shared across processes. Simulations are deterministic
// per job, so tables are byte-identical whatever the parallelism. Bind a
// context with Session.WithContext to make a whole figure run
// cancellable (iqfig wires Ctrl-C through this).
package sim

import (
	"context"

	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/metrics"
	"distiq/internal/trace"
)

// Options controls simulation length. It is the engine's job sizing,
// re-exported under its historical name.
type Options = engine.Options

// DefaultOptions returns lengths suitable for regenerating all figures in
// a few minutes.
func DefaultOptions() Options {
	return Options{Warmup: 20_000, Instructions: 100_000}
}

// QuickOptions returns lengths for tests and smoke runs.
func QuickOptions() Options {
	return Options{Warmup: 5_000, Instructions: 20_000}
}

// Result is the outcome of one benchmark × configuration simulation.
type Result = engine.Result

// Run simulates one benchmark under one configuration on the calling
// goroutine, bypassing every cache.
func Run(bench string, cfg core.Config, opt Options) (Result, error) {
	return engine.Simulate(engine.Job{Bench: bench, Config: cfg, Opt: opt})
}

// Session memoizes runs, the 1,024 most recently used, so figures
// sharing configurations (every figure reuses the baselines) do not
// repeat work; all 13 figures together use fewer. It is a thin harness
// over the Client layer: every job flows through an in-process client,
// whose engine fans batches across the worker pool. All methods are
// safe for concurrent use.
type Session struct {
	Opt Options
	cl  *client.Local
	ctx context.Context // base context of every engine call; nil = Background
}

// NewSession returns a Session with the given options, a GOMAXPROCS-wide
// worker pool and in-memory caching only.
func NewSession(opt Options) *Session {
	return NewSessionClient(opt, client.NewLocal())
}

// NewSessionClient returns a Session running every job through an
// existing Local client (sharing its caches and worker pool).
func NewSessionClient(opt Options, cl *client.Local) *Session {
	return &Session{Opt: opt, cl: cl}
}

// WithContext returns a Session view whose engine calls are bound to ctx
// (sharing the receiver's client and caches): cancelling ctx stops
// scheduling new simulations mid-figure while in-flight jobs finish and
// persist. The receiver is unchanged.
func (s *Session) WithContext(ctx context.Context) *Session {
	return &Session{Opt: s.Opt, cl: s.cl, ctx: ctx}
}

// context returns the session's base context.
func (s *Session) context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// EngineStats reports how the session resolved its jobs so far
// (simulated, memory hits, disk hits, deduplicated, cancelled).
func (s *Session) EngineStats() engine.Stats { return s.cl.Stats() }

func (s *Session) job(bench string, cfg core.Config) engine.Job {
	return engine.Job{Bench: bench, Config: cfg, Opt: s.Opt}
}

// Result returns the memoized run for bench × cfg, simulating on first use.
func (s *Session) Result(bench string, cfg core.Config) (Result, error) {
	return s.cl.Run(s.context(), s.job(bench, cfg))
}

// Prefetch resolves every bench × cfg combination through the engine's
// worker pool, so subsequent Result calls for those jobs are cache hits.
// The figure builders batch their whole job set this way before
// assembling tables serially.
func (s *Session) Prefetch(benches []string, cfgs ...core.Config) error {
	jobs := make([]engine.Job, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for _, cfg := range cfgs {
			jobs = append(jobs, s.job(b, cfg))
		}
	}
	_, err := s.cl.RunAll(s.context(), jobs)
	return err
}

// SuiteRuns returns the metrics.Run values of a whole suite under cfg, in
// figure order.
func (s *Session) SuiteRuns(suite trace.Suite, cfg core.Config) ([]metrics.Run, error) {
	benches := trace.Benchmarks(suite)
	if err := s.Prefetch(benches, cfg); err != nil {
		return nil, err
	}
	runs := make([]metrics.Run, 0, len(benches))
	for _, b := range benches {
		r, err := s.Result(b, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r.Run)
	}
	return runs, nil
}
