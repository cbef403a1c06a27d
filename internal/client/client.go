// Package client is the unified, context-aware entry point to the
// experiment system: one Client interface over both execution
// substrates — the in-process concurrent engine (Local) and a remote
// distiqd service (Remote) — so harnesses, CLIs and library users pick
// a substrate by constructor, not by API shape.
//
// A Client resolves single jobs (Run) and whole scenario grids (Sweep).
// Sweep returns a Stream delivering per-point results in deterministic
// grid order as they resolve, whatever the parallelism or substrate, so
// a consumer can render progress live and still assemble byte-identical
// CSV/JSON/markdown documents via Stream.ResultSet — the same emitters
// every other front end uses.
//
// Both implementations honor context cancellation: a cancelled sweep
// stops scheduling new points promptly (in-flight simulations finish and
// persist, so the distiq-v2 store stays consistent and a warm rerun
// completes only the remainder) and the stream's error unwraps to
// context.Canceled.
package client

import (
	"context"
	"fmt"

	"distiq/internal/engine"
	"distiq/internal/scenario"
)

// Job identifies one unit of experiment work: a benchmark under an
// issue-queue configuration, sized by options, optionally on an
// overridden machine. It is the engine's job type, re-exported as the
// Client layer's point currency.
type Job = engine.Job

// Client is the one experiment interface over every execution substrate.
// Implementations: Local (in-process engine) and Remote (distiqd over
// HTTP). Both are safe for concurrent use.
type Client interface {
	// Run resolves one job, blocking until its result is available or
	// ctx is cancelled.
	Run(ctx context.Context, job Job) (engine.Result, error)
	// Sweep starts resolving every point of a scenario grid and returns
	// a stream of per-point results in deterministic grid order. Sweep
	// itself does not block; consume the stream with Next/Update or
	// drain it with ResultSet.
	Sweep(ctx context.Context, grid *scenario.Grid) *Stream
}

// Update is one resolved grid point delivered by a Stream.
type Update struct {
	// Index is the point's position in the grid (updates arrive in
	// strictly increasing index order).
	Index int
	// Point is the grid cell the result belongs to.
	Point scenario.Point
	// Result is the simulation outcome.
	Result engine.Result
	// Source says how the point was resolved (simulated, memory, disk,
	// shared).
	Source engine.Source
}

// Counts aggregates how a stream's delivered points were resolved; on a
// warm store a rerun shows Simulated == 0. Local and Remote sweeps of
// the same grid against the same store report identical counts.
type Counts struct {
	Simulated  int64 `json:"simulated"`
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Shared     int64 `json:"shared"`
}

// Total returns the number of counted points.
func (c Counts) Total() int64 {
	return c.Simulated + c.MemoryHits + c.DiskHits + c.Shared
}

// Add tallies one resolved source — the one place the Source-to-counter
// mapping lives. Terminal sources (canceled) are not point resolutions
// and count nowhere.
func (c *Counts) Add(src engine.Source) {
	switch src {
	case engine.SourceSimulated:
		c.Simulated++
	case engine.SourceMemory:
		c.MemoryHits++
	case engine.SourceDisk:
		c.DiskHits++
	case engine.SourceShared:
		c.Shared++
	}
}

// Stats renders the counts as batch-scoped engine counters (Requested is
// the points counted; DiskErrors and Canceled are unobservable from a
// stream and stay zero).
func (c Counts) Stats() engine.Stats {
	return engine.Stats{
		Requested:  c.Total(),
		Simulated:  c.Simulated,
		MemoryHits: c.MemoryHits,
		DiskHits:   c.DiskHits,
		Shared:     c.Shared,
	}
}

// item is one stream element: an update or the terminal error.
type item struct {
	u   Update
	err error
}

// Stream delivers a sweep's results in deterministic grid order. It is
// a single-consumer iterator:
//
//	st := cl.Sweep(ctx, grid)
//	for st.Next() {
//		u := st.Update()
//		// ... render u.Point / u.Result
//	}
//	if err := st.Err(); err != nil { ... }
//
// or, to collect everything through the shared emitters:
//
//	res, err := st.ResultSet()
//
// The producer never blocks on a slow consumer (delivery is buffered to
// the grid size), so abandoning a stream loses nothing and blocks
// nobody — but the sweep itself keeps resolving in the background until
// it finishes or ctx is cancelled; cancel ctx to stop the work.
type Stream struct {
	grid     *scenario.Grid
	ch       chan item
	cur      Update
	err      error
	counts   Counts
	consumed int
	// manifest is set by the producer before the stream closes (the
	// channel close is the happens-before edge), so consumers read it
	// only after Next returns false.
	manifest *engine.Manifest
}

// newStream returns a stream for a grid with room for every point.
func newStream(grid *scenario.Grid) *Stream {
	return &Stream{grid: grid, ch: make(chan item, grid.Size()+1)}
}

// send delivers one in-order update (producer side; never blocks).
func (s *Stream) send(u Update) { s.ch <- item{u: u} }

// fail terminates the stream with err (producer side).
func (s *Stream) fail(err error) { s.ch <- item{err: err} }

// setManifest records the sweep's manifest (producer side; must happen
// before finish).
func (s *Stream) setManifest(m *engine.Manifest) { s.manifest = m }

// finish closes the stream after the last send or fail (producer side).
func (s *Stream) finish() { close(s.ch) }

// Next advances to the next in-order result, blocking until it is
// available. It returns false when the stream is exhausted or failed;
// check Err to distinguish.
func (s *Stream) Next() bool {
	it, ok := <-s.ch
	if !ok {
		return false
	}
	if it.err != nil {
		s.err = it.err
		return false
	}
	s.cur = it.u
	s.consumed++
	s.counts.Add(it.u.Source)
	return true
}

// Update returns the result Next advanced to.
func (s *Stream) Update() Update { return s.cur }

// Err returns the error that terminated the stream, or nil after a
// complete sweep. A cancelled sweep's error unwraps to context.Canceled.
func (s *Stream) Err() error { return s.err }

// Grid returns the grid the stream resolves.
func (s *Stream) Grid() *scenario.Grid { return s.grid }

// Counts reports how the points delivered so far were resolved.
func (s *Stream) Counts() Counts { return s.counts }

// Manifest returns the sweep's tamper-evident Merkle manifest. It is
// available only after the stream has been fully and successfully
// consumed (Next returned false with a nil Err, or ResultSet returned);
// earlier — or after a failed or cancelled sweep — it returns nil. Local
// and Remote sweeps of the same grid return identical manifests.
func (s *Stream) Manifest() *engine.Manifest { return s.manifest }

// ResultSet drains the stream and assembles the scenario result set,
// whose CSV/JSON/markdown emitters are shared by every front end — so
// Local and Remote sweeps of the same grid emit byte-identical
// documents. Its Stats field carries the batch-scoped resolution
// counters observed by the stream (Simulated == 0 on a warm rerun),
// matching Grid.RunOn's contract. It must be called instead
// of (not after) Next.
func (s *Stream) ResultSet() (*scenario.ResultSet, error) {
	if s.consumed > 0 {
		return nil, fmt.Errorf("client: ResultSet called on a partially consumed stream (%d updates already read)", s.consumed)
	}
	results := make([]engine.Result, 0, s.grid.Size())
	for s.Next() {
		results = append(results, s.cur.Result)
	}
	if s.err != nil {
		return nil, s.err
	}
	return &scenario.ResultSet{Grid: s.grid, Results: results, Stats: s.counts.Stats()}, nil
}

// pointErr wraps a point failure with its grid coordinates, preserving
// the cause for errors.Is (context.Canceled in particular).
func pointErr(g *scenario.Grid, i int, err error) error {
	p := g.Points[i]
	return fmt.Errorf("client: sweep point %d (%s under %s): %w", i, p.Bench, p.Config.Name, err)
}
