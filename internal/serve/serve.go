// Package serve exposes the concurrent experiment engine as a long-lived
// HTTP service, so many clients amortize one warm in-memory cache and one
// shared on-disk store instead of each paying cold simulations.
//
// The API accepts the strict-JSON scenario Spec of internal/scenario and
// answers it with the sweep's per-point results, streamed in grid order.
// The results decode to the exact engine.Result the server computed, so
// documents a client assembles from them (`iqsweep -server`) are
// byte-identical to `iqsweep -spec` on the same spec:
//
//	POST /v1/sweeps       submit a spec; 200 + the sweep's NDJSON stream,
//	                      ending in a done event that carries the sweep's
//	                      Merkle manifest; 400 on a malformed/invalid
//	                      spec, 413 over 1 MiB, 429 over quota, 503 while
//	                      draining, each before anything streams
//	GET  /v1/machine      the paper's Table 1 machine
//	GET  /v1/benchmarks   workload names per suite
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz         readiness (503 while draining)
//	GET  /livez           liveness
//
// Every error body has one stable shape: {"code": ..., "error": ...},
// and every response carries an X-Request-Id header (honored from the
// request or generated) that also tags the server's structured logs.
// Specs are expanded and validated before admission (invalid grids never
// occupy a queue slot). An admitted sweep runs as a client.Local sweep on
// the shared engine, and the submission's body is that sweep's stream,
// written as it is: the service keeps no ordering, failure or manifest
// logic of its own, so a Remote sweep delivers what a Local one would.
// The server holds a sweep only while it runs; a sweep whose client
// leaves still runs to completion and persists, so resubmitting its spec
// simulates nothing. Drain provides graceful shutdown: new submissions
// are refused while every in-flight sweep runs to completion.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
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
	// Simulate overrides the simulation function (tests inject stubs);
	// nil selects the real simulator.
	Simulate func(engine.Job) (engine.Result, error)
	// Logger, when non-nil, receives one structured record per HTTP
	// request and per sweep lifecycle event, each carrying the
	// request_id echoed in the X-Request-Id response header. Nil
	// discards logs.
	Logger *slog.Logger
}

// sweep is one admitted grid while it runs: the stream of the Local
// sweep that resolves it, the submitting request's ID, threaded through
// every lifecycle log line so a sweep's records correlate with the
// submission, its start time, and the instructions of the points its
// stream has delivered, for distiq_sweep_insts_per_second.
type sweep struct {
	st    *client.Stream
	reqID string
	start time.Time
	insts uint64
}

// Server is the HTTP experiment service: one shared engine, a bounded
// admission queue of sweeps, and handlers for submission and
// introspection. It implements http.Handler.
type Server struct {
	eng       *engine.Engine
	local     *client.Local // sweeps on eng
	store     engine.ResultStore
	maxQueued int
	log       *slog.Logger
	mux       *http.ServeMux
	obs       *obs.Registry
	start     time.Time

	// Server-level metric instruments (the engine's live on the same
	// registry).
	httpInFlight   *obs.Gauge
	sweepsAccepted *obs.Counter
	sweepsDone     *obs.Counter
	sweepsFailed   *obs.Counter
	instsPerSec    *obs.Gauge

	mu       sync.Mutex
	active   int // admitted but unfinished sweeps
	draining bool

	wg sync.WaitGroup // one per in-flight sweep, for Drain
}

// New returns a Server around a fresh engine.
func New(cfg Config) *Server {
	maxQueued := cfg.MaxQueued
	if maxQueued <= 0 {
		maxQueued = DefaultMaxQueued
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
		maxQueued: maxQueued,
		log:       logger,
		obs:       reg,
		start:     time.Now(),
	}
	s.local = client.NewLocalOn(s.eng)
	s.instrument()
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/sweeps", s.handleSubmit)
	s.route(mux, "GET /v1/machine", s.handleMachine)
	s.route(mux, "GET /v1/benchmarks", s.handleBenchmarks)
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

// handleSubmit parses, validates and expands a spec, admits it onto the
// bounded queue, starts it as a Local sweep on the shared engine and
// answers with the sweep's stream.
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
	s.active++
	s.wg.Add(1)
	s.mu.Unlock()

	sw := &sweep{reqID: RequestID(r.Context()), start: time.Now()}
	s.sweepsAccepted.Inc()
	s.log.Info("sweep accepted",
		"name", spec.Name, "points", grid.Size(), "request_id", sw.reqID)
	sw.st = s.local.Sweep(context.Background(), grid)
	s.streamSweep(w, r, sw)
}

// streamSweep writes a sweep's stream as NDJSON (client.StreamEvent per
// line), answering 200. Points already resolved go out back to back, and
// the response is flushed only when the stream would otherwise wait: a
// consumer sees each point as soon as the in-order prefix reaches it and
// renders progress live. The engine resolves a memory hit as soon as the
// sweep hands it the point, without a goroutine per point, so a warm
// sweep is normally produced whole during the one wait after the header
// and its lines, done event included, leave together when the handler
// returns. The last line is the done event, carrying the manifest, or an
// error event at the first point the stream did not deliver: the
// stream's error, or the encode error of a point the wire cannot carry.
// The sweep is counted done or failed before that line goes out, since a
// client it reaches may scrape the metrics or resubmit next. A client
// that leaves frees the handler promptly while the sweep runs on.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, sw *sweep) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	flush := func() { rc.Flush() } //nolint:errcheck // a broken connection fails the next write
	ctx, st := r.Context(), sw.st
	var (
		line []byte
		next int   // the index of the stream's next point
		fail error // the encode error of point next
		werr error // the client went away
	)
	for fail == nil && werr == nil && st.NextContext(ctx, flush) {
		u := st.Update()
		sw.insts += u.Result.Insts
		ev := client.StreamEvent{Index: u.Index, Benchmark: u.Point.Bench, Source: u.Source, Result: &u.Result}
		if line, fail = ev.AppendLine(line[:0]); fail == nil {
			_, werr = w.Write(line)
			next++
		}
	}
	if werr != nil || ctx.Err() != nil {
		go s.end(sw, fail) // the client went away; the sweep runs on
		return
	}
	ev := client.StreamEvent{Done: true, Points: st.Grid().Size()}
	if err := s.end(sw, fail); err != nil {
		ev = client.StreamEvent{Index: next, Error: err.Error()}
	} else {
		ev.Manifest = st.Manifest()
	}
	if line, err := ev.AppendLine(line[:0]); err == nil {
		w.Write(line) //nolint:errcheck // the stream is over either way
	}
}

// end ends a sweep: it drains what is left of a stream that has not
// failed, counts the sweep, logs its end and releases it, a failed
// sweep in the background. fail, when non-nil, is the encode error of a
// point, which fails the sweep whatever its stream says. end returns
// the sweep's error.
func (s *Server) end(sw *sweep, fail error) error {
	st := sw.st
	for fail == nil && st.Err() == nil && st.Next() {
		sw.insts += st.Update().Result.Insts
	}
	err := fail
	if err == nil {
		err = st.Err()
	}
	elapsed := time.Since(sw.start)
	name := st.Grid().Spec.Name
	if err != nil {
		s.sweepsFailed.Inc()
		s.log.Error("sweep failed",
			"name", name, "error", err.Error(),
			"duration_s", elapsed.Seconds(), "request_id", sw.reqID)
		go s.release(st)
		return err
	}
	ips := float64(sw.insts) / elapsed.Seconds()
	s.instsPerSec.Set(ips)
	s.sweepsDone.Inc()
	c := st.Counts()
	s.log.Info("sweep done",
		"name", name,
		"simulated", c.Simulated, "memory", c.MemoryHits,
		"disk", c.DiskHits, "shared", c.Shared,
		"duration_s", elapsed.Seconds(),
		"insts_per_second", ips,
		"merkle_root", st.Manifest().Root,
		"request_id", sw.reqID)
	s.release(st)
	return nil
}

// release waits until a sweep's stream has closed, which a failed
// sweep's does once its in-flight points have finished and persisted,
// then frees the sweep's queue slot and releases it for Drain.
func (s *Server) release(st *client.Stream) {
	for st.Next() {
	}
	st.Next() // on a failed stream, returns once the stream closes
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	s.wg.Done()
}

// machineDoc is the stable JSON rendering of the Table 1 machine. It is
// assembled field-by-field (pipeline.Config embeds scheme constructors
// that do not marshal); docs/API.md says which fields the scenario axes
// set.
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
