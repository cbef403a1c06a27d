// Command iqstudy runs comparative studies — ablations, seed-replicated
// statistics and adaptive energy–IPC Pareto frontier searches — through
// the same Client layer iqsweep uses. A study is a strict-JSON spec
// (-spec) in one of three modes:
//
//   - "ablation": a baseline configuration plus named variants, each a
//     set of feature toggles over the baseline; the output is a
//     deterministic variant × metric table with IPC and energy deltas.
//   - "replication": the same variants fanned across RNG seeds (explicit
//     "seeds" or a "replicates" count); the output reports mean, sample
//     stddev and 95% confidence intervals per variant × benchmark.
//   - "frontier": an adaptive search over a discrete configuration
//     "space" (queues × entries × chains × rob) for the energy-vs-IPC
//     Pareto frontier: a coarse grid seeds the search, then each round
//     proposes neighbors of the current non-dominated set until the
//     evaluation budget is exhausted or a round improves nothing.
//
// Every variant and candidate resolves through the content-addressed
// engine, so a warm rerun performs zero simulations and emits identical
// bytes, and a frontier re-proposing a visited point answers from cache.
// With -server the study drives a remote distiqd via its sweep
// endpoint; the table is byte-identical either way.
//
// Usage:
//
//	iqstudy -spec study.json -cache-dir /tmp/distiq-cache
//	iqstudy -spec study.json -format md -o study.md
//	iqstudy -spec study.json -server http://localhost:8090
//
// An ablation spec:
//
//	{
//	  "name": "scheme-ablation",
//	  "mode": "ablation",
//	  "suites": ["fp"],
//	  "variants": [
//	    {"name": "mb-distr", "scheme": "MB_distr"},
//	    {"name": "small-rob", "rob": 128}
//	  ]
//	}
//
// A frontier spec:
//
//	{
//	  "name": "latfifo-frontier",
//	  "mode": "frontier",
//	  "benchmarks": ["swim"],
//	  "space": {"scheme": "LatFIFO", "queues": [2,4,8], "entries": [8,16,32]},
//	  "budget": 16,
//	  "batch": 4
//	}
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"distiq"
	"distiq/internal/cliutil"
)

// errBadFlags marks a flag-parse failure the FlagSet already reported
// on stderr, so main does not print it a second time.
var errBadFlags = errors.New("bad flags")

func main() {
	stats, err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "iqstudy: %v\n", err)
		// Bad user input (specs, unknown formats) exits 2 like a flag
		// error; system failures exit 1.
		os.Exit(cliutil.ExitCode(err))
	}
	if stats.Requested > 0 {
		fmt.Fprintf(os.Stderr, "iqstudy: %d simulated, %d memory hits, %d disk hits, %d deduplicated\n",
			stats.Simulated, stats.MemoryHits, stats.DiskHits, stats.Shared)
	}
}

// run parses argv, loads the study spec, executes it through the Client
// layer and writes the formatted table. It returns the resolution
// counters so tests can assert warm-cache behaviour.
func run(argv []string, stdout, stderr io.Writer) (distiq.EngineStats, error) {
	fs := flag.NewFlagSet("iqstudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "JSON study spec file (required)")
		format   = fs.String("format", "csv", "output format: csv, json or md")
		outPath  = fs.String("o", "", "write output to this file instead of stdout")

		parallel  = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial; local runs)")
		cacheDir  = fs.String("cache-dir", "", "persistent result store directory (alias for -store fs:DIR; local runs)")
		storeSpec = fs.String("store", "", "result-store backend: fs:DIR or mem (local runs)")
		server    = fs.String("server", "", "run the study's points on the distiqd at this base URL instead of in-process")
		quiet     = fs.Bool("quiet", false, "suppress the progress reporter on stderr")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return distiq.EngineStats{}, err
		}
		// The FlagSet has already written the message and usage.
		return distiq.EngineStats{}, fmt.Errorf("%w: %v", errBadFlags, err)
	}
	if err := cliutil.ValidateParallel(*parallel); err != nil {
		return distiq.EngineStats{}, err
	}
	effStore, err := cliutil.ResolveStoreFlags(*storeSpec, *cacheDir)
	if err != nil {
		return distiq.EngineStats{}, err
	}
	if strings.Contains(*server, ",") {
		return distiq.EngineStats{}, cliutil.BadInput(fmt.Errorf("-server %q: takes one base URL", *server))
	}
	if *specPath == "" {
		return distiq.EngineStats{}, cliutil.BadInput(fmt.Errorf("-spec is required"))
	}
	spec, err := distiq.LoadStudySpec(*specPath)
	if err != nil {
		return distiq.EngineStats{}, cliutil.BadInput(err)
	}

	// The study runs through the Client layer, local or remote by flag;
	// Ctrl-C cancels the context, which stops scheduling new points
	// (in-flight ones finish and persist) and exits 130.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	var reporter *distiq.ConsoleReporter
	var cl distiq.Client
	var local *distiq.LocalClient
	var store distiq.ResultStore
	if *server != "" {
		cl = distiq.NewRemoteClient(*server)
	} else {
		opts := []distiq.ClientOption{distiq.WithParallel(*parallel)}
		if effStore != "" {
			store, err = distiq.OpenStore(effStore)
			if err != nil {
				return distiq.EngineStats{}, cliutil.BadInput(err)
			}
			opts = append(opts, distiq.WithStore(store))
		}
		if !*quiet {
			reporter = distiq.NewConsoleReporter(stderr)
			opts = append(opts, distiq.WithProgress(reporter.Report))
		}
		local = distiq.NewLocalClient(opts...)
		cl = local
	}
	res, err := distiq.RunStudy(ctx, cl, spec)
	if reporter != nil {
		reporter.Finish()
	}
	if store != nil {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	stats := runStats(local, res)
	if err != nil {
		return stats, err
	}

	// Emit through the shared study emitter — the same code path the
	// distiqd /v1/studies service uses, so CLI output, -server output
	// and service bodies are byte-identical by construction.
	var buf bytes.Buffer
	if err := res.Emit(&buf, *format); err != nil {
		return stats, cliutil.BadInput(err)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, buf.Bytes(), 0o644); err != nil {
			return stats, err
		}
		return stats, nil
	}
	_, err = stdout.Write(buf.Bytes())
	return stats, err
}

// runStats reports how the study's points were resolved: the engine's
// own counters for a local run, or counters reconstructed from the
// study's per-point sources for a remote one.
func runStats(local *distiq.LocalClient, res *distiq.StudyResult) distiq.EngineStats {
	if local != nil {
		return local.Stats()
	}
	if res == nil {
		return distiq.EngineStats{}
	}
	return res.Counts.Stats()
}
