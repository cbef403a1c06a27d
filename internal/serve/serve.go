// Package serve exposes the concurrent experiment engine as a long-lived
// HTTP service, so many clients amortize one warm in-memory cache and one
// shared on-disk store instead of each paying cold simulations.
//
// The API accepts the strict-JSON scenario Spec of internal/scenario and
// funnels results through the same emitters as cmd/iqsweep, so a sweep
// fetched over HTTP is byte-identical to `iqsweep -spec` on the same
// spec:
//
//	POST /v1/sweeps               submit a spec; 202 + sweep id, 400 on a
//	                              malformed/invalid spec, 429 over quota,
//	                              503 while draining; with an Accept
//	                              header naming application/x-ndjson,
//	                              200 + the sweep's NDJSON stream (the
//	                              Client layer's RemoteClient sends this)
//	GET  /v1/sweeps               status of every known sweep
//	GET  /v1/sweeps/{id}          results (?format=csv|json|md; 202 while
//	                              the sweep is still running)
//	GET  /v1/sweeps/{id}/stream   per-point results as NDJSON, streamed in
//	                              grid order as they resolve (re-attach)
//	GET  /v1/sweeps/{id}/status   per-sweep progress and resolution counts
//	GET  /v1/sweeps/{id}/manifest the sweep's tamper-evident Merkle
//	                              manifest (202 while running)
//	GET  /v1/machine              the paper's Table 1 machine
//	GET  /v1/benchmarks           workload names per suite
//	GET  /v1/stats                engine-wide resolution counters
//	GET  /v1/version              build and process identity
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 readiness (503 while draining)
//	GET  /livez                   liveness
//
// Every error body has one stable shape: {"code": ..., "error": ...},
// and every response carries an X-Request-Id header (honored from the
// request or generated) that also tags the server's structured logs.
// Specs are expanded and validated before admission (invalid grids never
// occupy a queue slot), admitted sweeps run asynchronously on the shared
// engine's worker pool, and Drain provides graceful shutdown: new
// submissions are refused while every in-flight sweep runs to completion.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/isa"
	"distiq/internal/obs"
	"distiq/internal/pipeline"
	"distiq/internal/scenario"
	"distiq/internal/trace"
)

// DefaultMaxQueued bounds admitted-but-unfinished sweeps when Config
// leaves MaxQueued zero.
const DefaultMaxQueued = 64

// DefaultMaxHistory bounds retained finished sweeps when Config leaves
// MaxHistory zero.
const DefaultMaxHistory = 256

// maxSpecBytes bounds a submitted spec document; real specs are a few
// hundred bytes, so a megabyte is generous.
const maxSpecBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS, 1 = serial).
	Parallel int
	// Store, when non-nil, backs the engine with a persistent result
	// store: engine.NewStore(dir) for the distiq-v2 content-addressed
	// store in a directory, shared with the iq* CLIs and other distiqd
	// processes. The Server adopts the store: Close closes it.
	Store engine.ResultStore
	// MaxQueued bounds sweeps admitted but not yet finished; further
	// submissions answer 429. Zero selects DefaultMaxQueued.
	MaxQueued int
	// MaxHistory bounds finished sweeps retained for result fetches;
	// beyond it the oldest finished sweeps (and their result sets) are
	// evicted and their ids answer 404. Zero selects DefaultMaxHistory.
	MaxHistory int
	// Simulate overrides the simulation function (tests inject stubs);
	// nil selects the real simulator.
	Simulate func(engine.Job) (engine.Result, error)
	// Logger, when non-nil, receives one structured record per HTTP
	// request and per sweep lifecycle event, each carrying the
	// request_id echoed in the X-Request-Id response header. Nil
	// discards logs.
	Logger *slog.Logger
}

// sweepState is the lifecycle of one admitted sweep.
type sweepState string

const (
	stateQueued  sweepState = "queued"
	stateRunning sweepState = "running"
	stateDone    sweepState = "done"
	stateFailed  sweepState = "failed"
)

// sweep is one admitted grid and its progress. The progress counters are
// per-sweep (fed by the engine's per-point streaming hook), so a warm
// resubmission reports 0 simulated even while other sweeps simulate.
// Per-point results are retained in grid order as they resolve, so the
// NDJSON streaming endpoint can deliver each point the moment the
// in-order prefix reaches it; cond (on mu) is broadcast at every point
// completion and state change.
type sweep struct {
	id   string
	name string
	grid *scenario.Grid
	// reqID is the submitting request's ID, threaded through every
	// lifecycle log line so a sweep's records correlate with the
	// submission.
	reqID string
	// finished, guarded by the Server's mu, marks a sweep counted among
	// the finished ones history eviction may drop: set once the sweep
	// has reached its terminal state.
	finished bool

	mu    sync.Mutex
	cond  *sync.Cond
	state sweepState
	total int
	done  int
	// Per-sweep resolution counts by source.
	counts client.Counts
	// Per-point outcomes, indexed by grid position; ready[i] flips once
	// results[i]/sources[i] are valid.
	results []engine.Result
	sources []engine.Source
	ready   []bool
	res     *scenario.ResultSet
	err     error
	// manifest is the sweep's tamper-evident Merkle manifest, built once
	// when the sweep completes successfully.
	manifest *engine.Manifest
}

// Status is the JSON progress document of one sweep.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Points is the grid size; Done counts points resolved so far.
	Points int `json:"points"`
	Done   int `json:"done"`
	// Resolution counts, per-sweep: Simulated ran the simulator;
	// MemoryHits, DiskHits and Shared were served from the shared
	// engine's caches or an in-flight run of the same simulation.
	Simulated  int64  `json:"simulated"`
	MemoryHits int64  `json:"memory_hits"`
	DiskHits   int64  `json:"disk_hits"`
	Shared     int64  `json:"shared"`
	Error      string `json:"error,omitempty"`
}

// status snapshots the sweep under its lock.
func (sw *sweep) status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked()
}

// statusLocked snapshots the sweep; the caller holds sw.mu.
func (sw *sweep) statusLocked() Status {
	st := Status{
		ID: sw.id, Name: sw.name, State: string(sw.state),
		Points: sw.total, Done: sw.done,
		Simulated: sw.counts.Simulated, MemoryHits: sw.counts.MemoryHits,
		DiskHits: sw.counts.DiskHits, Shared: sw.counts.Shared,
	}
	if sw.err != nil {
		st.Error = sw.err.Error()
	}
	return st
}

// Server is the HTTP experiment service: one shared engine, a bounded
// admission queue of sweeps, and handlers for submission, progress,
// results and introspection. It implements http.Handler.
type Server struct {
	eng        *engine.Engine
	store      engine.ResultStore
	maxQueued  int
	maxHistory int
	log        *slog.Logger
	mux        *http.ServeMux
	obs        *obs.Registry
	start      time.Time

	// Server-level metric instruments (the engine's live on the same
	// registry).
	httpInFlight   *obs.Gauge
	sweepsAccepted *obs.Counter
	sweepsDone     *obs.Counter
	sweepsFailed   *obs.Counter
	instsPerSec    *obs.Gauge

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string // sweep ids in admission order
	active   int      // admitted but unfinished sweeps
	finished int      // retained sweeps counted finished (sweep.finished)
	nextID   int
	draining bool

	wg sync.WaitGroup // one per in-flight sweep, for Drain
}

// New returns a Server around a fresh engine.
func New(cfg Config) *Server {
	maxQueued := cfg.MaxQueued
	if maxQueued <= 0 {
		maxQueued = DefaultMaxQueued
	}
	maxHistory := cfg.MaxHistory
	if maxHistory <= 0 {
		maxHistory = DefaultMaxHistory
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	reg := obs.NewRegistry()
	s := &Server{
		store: cfg.Store,
		eng: engine.New(engine.Config{
			Workers:  cfg.Parallel,
			Store:    cfg.Store,
			Simulate: cfg.Simulate,
			Obs:      reg,
		}),
		maxQueued:  maxQueued,
		maxHistory: maxHistory,
		log:        logger,
		obs:        reg,
		start:      time.Now(),
		sweeps:     make(map[string]*sweep),
	}
	s.instrument()
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/sweeps", s.handleSubmit)
	s.route(mux, "GET /v1/sweeps", s.handleList)
	s.route(mux, "GET /v1/sweeps/{id}", s.handleResult)
	s.route(mux, "GET /v1/sweeps/{id}/stream", s.handleStream)
	s.route(mux, "GET /v1/sweeps/{id}/status", s.handleStatus)
	s.route(mux, "GET /v1/sweeps/{id}/manifest", s.handleManifest)
	s.route(mux, "GET /v1/machine", s.handleMachine)
	s.route(mux, "GET /v1/benchmarks", s.handleBenchmarks)
	s.route(mux, "GET /v1/stats", s.handleStats)
	s.route(mux, "GET /v1/version", s.handleVersion)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.route(mux, "GET /healthz", s.handleHealth)
	s.route(mux, "GET /livez", s.handleLive)
	s.mux = mux
	return s
}

// discardHandler drops every record (slog.DiscardHandler arrived in Go
// 1.24; the module supports 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// DiscardHandler returns a slog.Handler that drops every record — the
// logger a front end uses under -quiet.
func DiscardHandler() slog.Handler { return discardHandler{} }

// Stats returns the shared engine's resolution counters.
func (s *Server) Stats() engine.Stats { return s.eng.Stats() }

// Metrics returns the server's metric registry — the families served at
// /metrics — for embedders that add their own instruments.
func (s *Server) Metrics() *obs.Registry { return s.obs }

// apiError is the one error-body shape of the whole API.
type apiError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiError{Code: code, Error: msg})
}

// writeSpecError surfaces a spec parse/expand failure. Those errors are
// always caller mistakes — the cliutil taxonomy's bad-input class, which
// the CLIs surface as exit 2 and this service as 400.
func writeSpecError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
}

// handleSubmit parses, validates and expands a spec, then admits it onto
// the bounded queue and starts it on the shared engine. It answers with
// the sweep's status, or, when the request accepts NDJSON, with the
// sweep's stream.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("spec exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("reading request body: %v", err))
		return
	}
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		writeSpecError(w, err)
		return
	}
	grid, err := spec.Expand()
	if err != nil {
		writeSpecError(w, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; not accepting new sweeps")
		return
	}
	if s.active >= s.maxQueued {
		n := s.active
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("admission queue is full (%d sweeps queued or running)", n))
		return
	}
	s.nextID++
	sw := &sweep{
		id:      fmt.Sprintf("sw-%06d", s.nextID),
		name:    spec.Name,
		grid:    grid,
		reqID:   RequestID(r.Context()),
		state:   stateQueued,
		total:   grid.Size(),
		results: make([]engine.Result, grid.Size()),
		sources: make([]engine.Source, grid.Size()),
		ready:   make([]bool, grid.Size()),
	}
	sw.cond = sync.NewCond(&sw.mu)
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.active++
	s.wg.Add(1)
	s.mu.Unlock()

	s.sweepsAccepted.Inc()
	s.log.Info("sweep accepted",
		"sweep", sw.id, "name", sw.name, "points", sw.total, "request_id", sw.reqID)
	w.Header().Set("Location", "/v1/sweeps/"+sw.id)
	if acceptsNDJSON(r) {
		go s.runSweep(sw, grid)
		streamSweep(w, r, sw)
		return
	}
	// Snapshot the documented "queued" response before the sweep starts:
	// on a warm store a tiny grid could otherwise finish first and the
	// 202 body would surprise clients pinned to the documented shape.
	st := sw.status()
	go s.runSweep(sw, grid)
	writeJSON(w, http.StatusAccepted, st)
}

// acceptsNDJSON reports whether the request's Accept header names the
// NDJSON stream, asking for a submission to answer with the sweep's
// stream instead of its status.
func acceptsNDJSON(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for _, mt := range strings.Split(v, ",") {
			mt, _, _ = strings.Cut(mt, ";")
			if strings.EqualFold(strings.TrimSpace(mt), "application/x-ndjson") {
				return true
			}
		}
	}
	return false
}

// runSweep executes one admitted grid on the shared engine through the
// per-point streaming primitive: every resolved point lands in the
// sweep's in-order result slots (waking any NDJSON streamers) and feeds
// the per-sweep resolution counters.
func (s *Server) runSweep(sw *sweep, grid *scenario.Grid) {
	defer s.wg.Done()
	started := time.Now()
	sw.mu.Lock()
	sw.state = stateRunning
	sw.cond.Broadcast()
	sw.mu.Unlock()

	errs := make([]error, grid.Size())
	grid.RunStream(context.Background(), s.eng, func(i int, r engine.Result, err error, src engine.Source) {
		sw.mu.Lock()
		sw.done++
		sw.counts.Add(src)
		if err != nil {
			errs[i] = err
		} else {
			sw.results[i], sw.sources[i], sw.ready[i] = r, src, true
		}
		sw.cond.Broadcast()
		sw.mu.Unlock()
	})
	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}

	elapsed := time.Since(started)
	var manifest *engine.Manifest
	var insts uint64
	if err == nil {
		for _, r := range sw.results {
			insts += r.Insts
		}
		// The manifest name is the spec name (as the Local client uses),
		// so a Remote sweep's manifest is identical to a Local sweep of
		// the same grid. Spec-expanded grids are always addressable; a
		// build failure is a server bug, surfaced at the endpoint.
		manifest, err = s.eng.Manifest(sw.name, grid.Jobs(), sw.results)
	}

	// Count the sweep before publishing its final state: a status poller
	// the broadcast wakes may scrape the metrics next.
	ips := float64(insts) / elapsed.Seconds()
	if err != nil {
		s.sweepsFailed.Inc()
	} else {
		s.instsPerSec.Set(ips)
		s.sweepsDone.Inc()
	}

	sw.mu.Lock()
	if err != nil {
		sw.state, sw.err = stateFailed, err
	} else {
		sw.state = stateDone
		sw.manifest = manifest
		sw.res = &scenario.ResultSet{Grid: grid, Results: sw.results, Stats: s.eng.Stats()}
	}
	sw.cond.Broadcast()
	sw.mu.Unlock()

	s.mu.Lock()
	s.active--
	s.finished++
	sw.finished = true
	s.evictLocked()
	s.mu.Unlock()

	if st := sw.status(); err != nil {
		s.log.Error("sweep failed",
			"sweep", sw.id, "error", err.Error(),
			"duration_s", elapsed.Seconds(), "request_id", sw.reqID)
	} else {
		s.log.Info("sweep done",
			"sweep", sw.id,
			"simulated", st.Simulated, "memory", st.MemoryHits,
			"disk", st.DiskHits, "shared", st.Shared,
			"duration_s", elapsed.Seconds(),
			"insts_per_second", ips,
			"merkle_root", manifest.Root,
			"request_id", sw.reqID)
	}
}

// evictLocked drops the oldest finished sweeps — and, with them, their
// retained result sets — once more than maxHistory have finished, so a
// long-lived service does not grow without bound. Unfinished sweeps are
// never evicted (the admission queue bounds those). The pass walks the
// sweeps in admission order and stops as soon as maxHistory finished
// ones remain. Called with s.mu held.
func (s *Server) evictLocked() {
	for i := 0; s.finished > s.maxHistory && i < len(s.order); {
		sw := s.sweeps[s.order[i]]
		if !sw.finished {
			i++
			continue
		}
		delete(s.sweeps, sw.id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.finished--
		s.log.Info("sweep evicted", "sweep", sw.id, "max_history", s.maxHistory)
	}
}

// blocks reports whether a stream must wait on the sweep for point i,
// or for i == total for its terminal state: neither has arrived, the
// sweep has not failed and the stream's client is still there. The
// caller holds sw.mu.
func (sw *sweep) blocks(ctx context.Context, i int) bool {
	if sw.state == stateFailed || ctx.Err() != nil {
		return false
	}
	if i < sw.total {
		return !sw.ready[i]
	}
	return sw.state != stateDone
}

// lookup returns the sweep for the request's {id}, or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *sweep {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown sweep %q", id))
	}
	return sw
}

// handleStatus serves per-sweep progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	writeJSON(w, http.StatusOK, sw.status())
}

// handleList serves every known sweep's status in admission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sws := make([]*sweep, 0, len(s.order))
	for _, id := range s.order {
		sws = append(sws, s.sweeps[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(sws))
	for i, sw := range sws {
		out[i] = sw.status()
	}
	writeJSON(w, http.StatusOK, struct {
		Sweeps []Status `json:"sweeps"`
	}{out})
}

// handleResult serves a finished sweep's results through the scenario
// emitters — the same code path as `iqsweep -spec`, so the bodies are
// byte-identical. While the sweep is still queued or running it answers
// 202 with the status document.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	ctype, ok := scenario.ContentType(format)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_format",
			fmt.Sprintf("unknown format %q (csv, json or md)", format))
		return
	}

	// One snapshot under one lock: the 202 body below must agree with
	// the state we branched on, even if the sweep finishes meanwhile.
	sw.mu.Lock()
	st := sw.statusLocked()
	res, err := sw.res, sw.err
	sw.mu.Unlock()
	switch sweepState(st.State) {
	case stateQueued, stateRunning:
		writeJSON(w, http.StatusAccepted, st)
		return
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "sweep_failed", err.Error())
		return
	}

	w.Header().Set("Content-Type", ctype)
	if err := res.Emit(w, format); err != nil {
		// The response may be partially written; nothing more to do
		// than log (Emit only fails on writer errors here, the format
		// was validated above).
		s.log.Warn("emit failed", "sweep", sw.id, "format", format, "error", err.Error())
	}
}

// handleStream serves a sweep's per-point results as NDJSON: the
// re-attach form of a streamed submission (see streamSweep).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if sw := s.lookup(w, r); sw != nil {
		streamSweep(w, r, sw)
	}
}

// streamSweep writes a sweep's per-point results as NDJSON
// (client.StreamEvent per line) in grid order, answering 200. Points
// already resolved go out back to back, and the stream is flushed only
// when it would otherwise wait on the sweep: a consumer sees each point
// as soon as the in-order prefix reaches it and renders progress live,
// while a finished sweep replays in as few writes as its size allows.
// The stream terminates with {"done":true} on success or an
// {"error":...} event at the first failed point; a cancelled request
// unblocks promptly.
func streamSweep(w http.ResponseWriter, r *http.Request, sw *sweep) {
	ctx := r.Context()
	// Wake the cond waiters below when the client goes away, so an
	// abandoned stream never outlives its request.
	stop := context.AfterFunc(ctx, func() {
		sw.mu.Lock()
		sw.cond.Broadcast()
		sw.mu.Unlock()
	})
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// await locks sw.mu and returns, holding it, once the stream need
	// not wait for point i (for i == sw.total: for the sweep's end).
	// Before it first waits it pushes out what is written so far (on
	// the first point, the response header) outside the lock, so a slow
	// client never holds up the sweep.
	await := func(i int) {
		sw.mu.Lock()
		if !sw.blocks(ctx, i) {
			return
		}
		sw.mu.Unlock()
		if flusher != nil {
			flusher.Flush()
		}
		sw.mu.Lock()
		for sw.blocks(ctx, i) {
			sw.cond.Wait()
		}
	}
	// write sends one event; false means the stream is over.
	var line []byte
	write := func(ev client.StreamEvent) bool {
		var err error
		if line, err = ev.AppendLine(line[:0]); err != nil {
			return false
		}
		_, err = w.Write(line)
		return err == nil
	}

	for i := 0; i < sw.total; i++ {
		await(i)
		ok := sw.ready[i]
		res := sw.results[i]
		src := sw.sources[i]
		err := sw.err
		sw.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if !ok {
			// The sweep failed and this is the first unresolved point in
			// grid order; terminate the stream with the sweep's error.
			msg := "sweep failed"
			if err != nil {
				msg = err.Error()
			}
			write(client.StreamEvent{Index: i, Error: msg})
			return
		}
		if !write(client.StreamEvent{
			Index:     i,
			Benchmark: sw.grid.Points[i].Bench,
			Source:    src,
			Result:    &res,
		}) {
			return // client went away mid-write
		}
	}
	// Every point is out; wait for the sweep's terminal transition so the
	// done event can carry the manifest (built right after the last point
	// resolves — the wait is momentary). The server flushes the last
	// write with the end of the response.
	await(sw.total)
	manifest := sw.manifest
	sw.mu.Unlock()
	if ctx.Err() != nil {
		return
	}
	write(client.StreamEvent{Done: true, Points: sw.total, Manifest: manifest})
}

// handleManifest serves a finished sweep's tamper-evident Merkle
// manifest: 202 with the status document while the sweep is queued or
// running, the sweep's error while failed, the manifest JSON once done.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	sw.mu.Lock()
	st := sw.statusLocked()
	m := sw.manifest
	err := sw.err
	sw.mu.Unlock()
	switch sweepState(st.State) {
	case stateQueued, stateRunning:
		writeJSON(w, http.StatusAccepted, st)
		return
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "sweep_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// machineDoc is the stable JSON rendering of the Table 1 machine. It is
// assembled field-by-field (pipeline.Config embeds scheme constructors
// that do not marshal) and mirrors the names scenario axes use.
type machineDoc struct {
	FetchWidth      int  `json:"fetch_width"`
	DispatchWidth   int  `json:"dispatch_width"`
	IssueWidthInt   int  `json:"issue_width_int"`
	IssueWidthFP    int  `json:"issue_width_fp"`
	CommitWidth     int  `json:"commit_width"`
	FetchQueue      int  `json:"fetch_queue"`
	ROBSize         int  `json:"rob_size"`
	DecodeDepth     int  `json:"decode_depth"`
	RedirectPenalty int  `json:"redirect_penalty"`
	IntALUs         int  `json:"int_alus"`
	IntMuls         int  `json:"int_muls"`
	FPAdders        int  `json:"fp_adders"`
	FPMuls          int  `json:"fp_muls"`
	L1DLatency      int  `json:"l1d_latency"`
	L2Latency       int  `json:"l2_latency"`
	MemLatency      int  `json:"mem_latency"`
	PerfectDisamb   bool `json:"perfect_disambiguation"`
}

// handleMachine serves the default (Table 1) machine, the baseline every
// scenario Machine axis overrides.
func (s *Server) handleMachine(w http.ResponseWriter, r *http.Request) {
	c := pipeline.DefaultConfig(core.Baseline64())
	doc := machineDoc{
		FetchWidth:      c.FetchWidth,
		DispatchWidth:   c.DispatchWidth,
		IssueWidthInt:   c.IssueWidthInt,
		IssueWidthFP:    c.IssueWidthFP,
		CommitWidth:     c.CommitWidth,
		FetchQueue:      c.FetchQueue,
		ROBSize:         c.ROBSize,
		DecodeDepth:     c.DecodeDepth,
		RedirectPenalty: c.RedirectPenalty,
		IntALUs:         c.FUCounts[isa.IntALUUnit],
		IntMuls:         c.FUCounts[isa.IntMulUnit],
		FPAdders:        c.FUCounts[isa.FPAddUnit],
		FPMuls:          c.FUCounts[isa.FPMulUnit],
		L1DLatency:      c.Hier.L1D.Latency,
		L2Latency:       c.Hier.L2.Latency,
		MemLatency:      c.Hier.Mem.FirstChunk,
		PerfectDisamb:   c.PerfectDisambiguation,
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleBenchmarks serves the workload names per suite.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Int []string `json:"int"`
		FP  []string `json:"fp"`
	}{trace.Benchmarks(trace.SuiteInt), trace.Benchmarks(trace.SuiteFP)})
}

// statsDoc renders engine.Stats with the API's snake_case keys (the raw
// struct has no JSON tags and would leak Go identifiers).
type statsDoc struct {
	Requested  int64 `json:"requested"`
	Simulated  int64 `json:"simulated"`
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Shared     int64 `json:"shared"`
	Canceled   int64 `json:"canceled"`
	DiskErrors int64 `json:"disk_errors"`
}

// handleStats serves the engine-wide resolution counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, statsDoc{
		Requested:  st.Requested,
		Simulated:  st.Simulated,
		MemoryHits: st.MemoryHits,
		DiskHits:   st.DiskHits,
		Shared:     st.Shared,
		Canceled:   st.Canceled,
		DiskErrors: st.DiskErrors,
	})
}

// healthDoc is the readiness body: ok flips false (with HTTP 503) once
// the server is draining, so load balancers stop routing new work while
// in-flight sweeps finish. Liveness stays separate at /livez.
type healthDoc struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
}

// handleHealth is the readiness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, healthDoc{OK: false, Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, healthDoc{OK: true})
}

// Drain stops admitting new sweeps (submissions answer 503) and blocks
// until every in-flight sweep has finished or ctx expires, in which case
// it reports how many sweeps were abandoned mid-flight.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("draining: refusing new sweeps, waiting for in-flight")
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.active
		s.mu.Unlock()
		return fmt.Errorf("serve: drain interrupted with %d sweeps in flight: %w", n, ctx.Err())
	}
}

// Close closes the result store adopted through Config.Store. Call it
// after Drain, once no sweep can write anymore.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// SweepIDs returns every known sweep id in admission order (a stable,
// test-friendly view of the registry).
func (s *Server) SweepIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}
