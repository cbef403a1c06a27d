package client

import (
	"context"
	"fmt"

	"distiq/internal/engine"
	"distiq/internal/scenario"
)

// Local is the in-process Client: it resolves jobs on the concurrent
// experiment engine — bounded worker pool, single-flight deduplication,
// in-memory cache and (with WithStore) the persistent distiq-v2
// store. All methods are safe for concurrent use; one Local client may
// serve many goroutines and amortizes one warm cache across them.
type Local struct {
	eng *engine.Engine
}

// NewLocal returns a Local client. Recognized options: WithParallel,
// WithStore, WithProgress.
func NewLocal(opts ...Option) *Local {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return &Local{eng: engine.New(engine.Config{
		Workers:  cfg.parallel,
		Store:    cfg.store,
		Progress: cfg.progress,
	})}
}

// NewLocalOn returns a Local client sharing an existing engine (and its
// caches) — the embedding path for services that own the engine.
func NewLocalOn(e *engine.Engine) *Local { return &Local{eng: e} }

// Stats returns a consistent snapshot of the engine's resolution
// counters.
func (c *Local) Stats() engine.Stats { return c.eng.Stats() }

// Run resolves one job, honoring ctx per the engine's contract: a
// request cancelled before its job claims a worker slot returns
// ctx.Err() promptly; a job already simulating finishes and is cached.
func (c *Local) Run(ctx context.Context, job Job) (engine.Result, error) {
	return c.eng.ResultCtx(ctx, job)
}

// RunAll resolves a batch of jobs concurrently and returns their results
// in input order (first error in input order on failure).
func (c *Local) RunAll(ctx context.Context, jobs []Job) ([]engine.Result, error) {
	return c.eng.ResultAllCtx(ctx, jobs)
}

// Sweep shards the grid across the engine's worker pool and streams
// per-point results in deterministic grid order: out-of-order
// completions are buffered and released strictly in sequence, so the
// stream's order — and any document assembled from it — is independent
// of parallelism. On the first failed point (in grid order) the stream
// terminates with that point's error and the sweep's remaining points
// are cancelled (in-flight ones finish and persist); under caller
// cancellation that error unwraps to context.Canceled. A sweep whose
// points all resolve ends with its manifest, or fails with the error
// that kept it from being built. Abandoning a stream without cancelling
// ctx lets the sweep run to completion in the background (delivery is
// buffered, so nothing blocks or is lost — cancel ctx to stop the work
// itself). distiqd serves every submission through this method.
func (c *Local) Sweep(ctx context.Context, grid *scenario.Grid) *Stream {
	st := newStream(grid)
	// A child context lets a mid-sweep failure stop the doomed
	// remainder of the grid without touching the caller's ctx.
	ctx, cancelRest := context.WithCancel(ctx)
	go func() {
		defer st.finish()
		defer cancelRest()
		jobs := grid.Jobs()
		n := len(jobs)
		results := make([]engine.Result, n)
		errs := make([]error, n)
		srcs := make([]engine.Source, n)
		done := make([]bool, n)
		next := 0
		failed := false
		// Emits are serialized by the engine, so the reorder state needs
		// no locking; delivery to the stream's buffered channel never
		// blocks the worker that produced the result.
		keys := c.eng.ResultStream(ctx, jobs, func(i int, r engine.Result, err error, src engine.Source) {
			if failed {
				return
			}
			results[i], errs[i], srcs[i], done[i] = r, err, src, true
			for next < n && done[next] {
				if errs[next] != nil {
					failed = true
					cancelRest()
					st.fail(pointErr(grid, next, errs[next]))
					return
				}
				st.send(Update{Index: next, Point: grid.Points[next], Result: results[next], Source: srcs[next]})
				next++
			}
		})
		if failed {
			return
		}
		m, err := c.eng.Manifest(grid.Spec.Name, jobs, keys, results)
		if err != nil {
			st.fail(fmt.Errorf("client: sweep manifest: %w", err))
			return
		}
		st.setManifest(m)
	}()
	return st
}

// compile-time interface check.
var _ Client = (*Local)(nil)
