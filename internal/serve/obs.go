package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"distiq/internal/obs"
)

// ctxKey keys the values the instrumentation middleware stores on the
// request context.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request ID the middleware assigned (or accepted
// from the caller's X-Request-Id header); empty outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// validRequestID accepts caller-supplied request IDs that are safe to
// echo into headers and logs: 1–64 characters of [A-Za-z0-9._-].
func validRequestID(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// newRequestID honors a well-formed inbound X-Request-Id (so a caller's
// trace ID threads through distiqd's logs) or mints a random 8-byte hex
// ID.
func newRequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the response status and the matched route for
// the middleware. It forwards Flush, so the NDJSON streaming handler
// keeps its incremental delivery through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	route  string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route registers pattern on the mux, stamping the route label (the
// pattern minus its method) onto the statusWriter so the middleware can
// attribute duration and count samples without Go 1.23's Request.Pattern.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	label := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		label = pattern[i+1:]
	}
	mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = label
		}
		h(w, r)
	}))
}

// quietRoutes log at debug level: probes and scrapes arrive every few
// seconds and would drown the sweep lifecycle lines at info.
var quietRoutes = map[string]bool{
	"/metrics": true,
	"/healthz": true,
	"/livez":   true,
}

// ServeHTTP dispatches to the service's routes through the
// instrumentation middleware: every request gets an X-Request-Id
// (honored from the caller or generated), an in-flight gauge window, a
// per-route duration observation and request counter, and one
// structured log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := newRequestID(r)
	sw := &statusWriter{ResponseWriter: w}
	sw.Header().Set("X-Request-Id", id)
	s.httpInFlight.Inc()
	s.mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	s.httpInFlight.Dec()

	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	route := sw.route
	if route == "" {
		// The mux matched no registered pattern (404/405); one bucket
		// keeps unmatched paths from minting unbounded label values.
		route = "other"
	}
	dur := time.Since(start)
	s.obs.Counter("distiq_http_requests_total",
		"HTTP requests by matched route and status code.",
		obs.L("route", route), obs.L("code", strconv.Itoa(status))).Inc()
	s.obs.Histogram("distiq_http_request_duration_seconds",
		"HTTP request duration by matched route.",
		httpDurBuckets, obs.L("route", route)).Observe(dur.Seconds())

	lvl := slog.LevelInfo
	if quietRoutes[route] {
		lvl = slog.LevelDebug
	}
	s.log.Log(r.Context(), lvl, "request",
		"method", r.Method,
		"route", route,
		"path", r.URL.Path,
		"status", status,
		"duration_ms", float64(dur.Microseconds())/1e3,
		"request_id", id,
		"remote", r.RemoteAddr)
}

// httpDurBuckets spans 1ms–16s exponentially: cache-hit introspection
// answers in microseconds-to-milliseconds, cold sweep streams in
// seconds.
var httpDurBuckets = obs.ExpBuckets(0.001, 4, 8)

// instrument registers the server-level metrics (the engine registers
// its own on the same registry in New).
func (s *Server) instrument() {
	reg := s.obs
	s.httpInFlight = reg.Gauge("distiq_http_in_flight_requests",
		"HTTP requests currently being served.")
	reg.GaugeFunc("distiq_sweeps_active",
		"Sweeps admitted but not yet finished.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.active)
		})
	s.sweepsAccepted = reg.Counter("distiq_sweeps_total",
		"Sweep lifecycle transitions by state.", obs.L("state", "accepted"))
	s.sweepsDone = reg.Counter("distiq_sweeps_total",
		"Sweep lifecycle transitions by state.", obs.L("state", "done"))
	s.sweepsFailed = reg.Counter("distiq_sweeps_total",
		"Sweep lifecycle transitions by state.", obs.L("state", "failed"))
	s.instsPerSec = reg.Gauge("distiq_sweep_insts_per_second",
		"Committed instructions per wall second of the most recently finished sweep (cache hits included).")
	version, goVersion := VersionInfo()
	reg.Gauge("distiq_build_info",
		"Build metadata; the value is always 1.",
		obs.L("version", version), obs.L("goversion", goVersion)).Set(1)
	reg.Gauge("distiq_process_start_time_seconds",
		"Unix time the server was constructed.").Set(float64(s.start.Unix()))
	reg.GaugeFunc("distiq_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
}

// VersionInfo reports the module version (as recorded by the build) and
// the Go toolchain version — the labels of distiq_build_info, also
// logged once at distiqd startup.
func VersionInfo() (version, goVersion string) {
	version = "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return version, runtime.Version()
}

// handleMetrics serves the Prometheus text exposition of every
// registered metric (server, engine and process families).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WritePrometheus(w) //nolint:errcheck // the response is already committed
}

// handleLive is the liveness probe: it answers 200 for as long as the
// process serves requests, draining included (readiness is /healthz).
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}
