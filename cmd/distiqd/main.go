// Command distiqd serves the experiment engine over HTTP: a long-lived
// process owning one worker pool, one in-memory cache of the 1,024 most
// recently used results and (optionally) one persistent distiq-v2
// content-addressed store, so many clients — and concurrent iq* CLI runs
// pointed at the same -cache-dir — amortize each simulation exactly
// once. The bounded cache keeps a long-lived distiqd from growing with
// every point it serves; a point it has dropped comes back from the
// store, or is simulated again without one.
//
// A sweep is one exchange: its strict-JSON scenario spec (the format of
// `iqsweep -spec`) is posted, and the response streams its per-point
// results as NDJSON in grid order, ending in a done event that carries
// the sweep's Merkle manifest. `iqsweep -server` assembles CSV, JSON and
// markdown from that stream through the CLI's own emitters, so its
// output is byte-identical to a local run of the same spec:
//
//	distiqd -addr :8090 -parallel 8 -cache-dir /tmp/distiq-cache &
//
//	curl -sN localhost:8090/v1/sweeps -d '{
//	  "name": "rob-ablation",
//	  "benchmarks": ["swim"],
//	  "schemes": [{"scheme": "MB_distr"}],
//	  "rob": [128, 256]
//	}'
//	# -> 200, one NDJSON line per point, live, then {"index":0,"done":true,"points":2,"manifest":{...}}
//
//	iqsweep -spec grid.json -server http://localhost:8090 -format md
//	curl -s localhost:8090/v1/machine                   # Table 1 introspection
//	curl -s localhost:8090/v1/benchmarks
//	curl -s localhost:8090/metrics                      # engine counters, build identity
//
// Malformed or invalid specs answer 400 before anything simulates;
// submissions while -max-queued sweeps are already unfinished answer
// 429. The server holds a sweep only while it runs; one whose client
// leaves runs to completion and persists. On SIGINT/SIGTERM the
// listener closes and every in-flight sweep drains before exit.
//
// Observability: GET /metrics serves the Prometheus exposition, the
// engine-wide counters and the build identity included, /healthz is the
// readiness probe (503 once draining) and /livez the liveness probe.
// Every request is logged structurally (-log-format text|json,
// -log-level debug|info|warn|error) with an X-Request-Id that is
// honored from the caller or generated and echoed back.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"distiq/internal/cliutil"
	"distiq/internal/engine"
	"distiq/internal/serve"
)

func main() {
	srv, logger, addr, err := setup(os.Args[1:], os.Stderr)
	if err != nil {
		cliutil.Exit("distiqd", err)
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv}
	// The same signal context the iq* CLIs use: SIGINT/SIGTERM starts a
	// graceful shutdown (listener closes, in-flight sweeps drain), and a
	// second signal kills the process outright.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(sctx) //nolint:errcheck // drain below bounds the wait
	}()

	// The one startup line carries distiq_build_info's labels, so logs
	// and /metrics agree on which build answered.
	version, goVersion := serve.VersionInfo()
	logger.Info("listening",
		"addr", addr,
		"version", version,
		"go_version", goVersion,
		"start_time", time.Now().UTC().Format(time.RFC3339))
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "distiqd: %v\n", err)
		os.Exit(1)
	}
	// The listener is closed; let in-flight sweeps finish so their
	// results land in the persistent store.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "distiqd: %v\n", err)
		os.Exit(1)
	}
	// Drained: close the adopted store.
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "distiqd: %v\n", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-format and
// -log-level flags. Invalid values are bad input (exit 2), matching the
// rest of the flag taxonomy.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, cliutil.BadInput(fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level))
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, cliutil.BadInput(fmt.Errorf("invalid -log-format %q (want text or json)", format))
}

// setup parses argv, validates the engine knobs through the shared
// cliutil checks and assembles the service plus its logger. It is main
// minus the listener, so tests can exercise flag handling and drive the
// returned handler directly.
func setup(argv []string, stderr io.Writer) (*serve.Server, *slog.Logger, string, error) {
	fs := flag.NewFlagSet("distiqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8090", "listen address")
		parallel  = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		cacheDir  = fs.String("cache-dir", "", "persistent result store directory, shared with the iq* CLIs")
		maxQueued = fs.Int("max-queued", serve.DefaultMaxQueued, "maximum admitted-but-unfinished sweeps before 429")
		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		quiet     = fs.Bool("quiet", false, "suppress all logging on stderr")
	)
	if err := cliutil.ParseFlags(fs, argv); err != nil {
		return nil, nil, "", err
	}
	if err := cliutil.ValidateEngineFlags(*parallel, *cacheDir); err != nil {
		return nil, nil, "", err
	}
	if err := cliutil.ValidateMaxQueued(*maxQueued); err != nil {
		return nil, nil, "", err
	}
	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return nil, nil, "", err
	}
	cfg := serve.Config{
		Parallel:  *parallel,
		MaxQueued: *maxQueued,
	}
	if *cacheDir != "" {
		// The service adopts the store: Server.Close (called after Drain)
		// closes it.
		cfg.Store = engine.NewStore(*cacheDir)
	}
	if !*quiet {
		cfg.Logger = logger
	} else {
		logger = slog.New(serve.DiscardHandler())
	}
	return serve.New(cfg), logger, *addr, nil
}
