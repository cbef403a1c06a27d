// Command iqstudy runs comparative studies — ablations and
// seed-replicated statistics — through the same Client layer iqsweep
// uses. A study is a strict-JSON spec (-spec) in one of two modes:
//
//   - "ablation": a baseline configuration plus named variants, each a
//     set of feature toggles over the baseline; the output is a
//     deterministic variant × metric table with IPC and energy deltas.
//   - "replication": the same variants fanned across RNG seeds (explicit
//     "seeds" or a "replicates" count); the output reports mean, sample
//     stddev and 95% confidence intervals per variant × benchmark.
//
// Each variant is one single-configuration scenario grid resolved
// through the content-addressed engine, so a warm rerun performs zero
// simulations and emits identical bytes. With -server the study drives
// a remote distiqd via its sweep endpoint; the table is byte-identical
// either way. Bad flags, an unknown -format and bad specs exit 2 before
// anything simulates; so do -cache-dir and -parallel beside -server,
// since the distiqd's own engine and store resolve a remote study.
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
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"distiq"
	"distiq/internal/cliutil"
	"distiq/internal/scenario"
)

func main() {
	stats, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil && stats.Requested > 0 {
		fmt.Fprintf(os.Stderr, "iqstudy: %d simulated, %d memory hits, %d disk hits, %d deduplicated\n",
			stats.Simulated, stats.MemoryHits, stats.DiskHits, stats.Shared)
	}
	cliutil.Exit("iqstudy", err)
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

		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial; local runs only, not with -server)")
		cacheDir = fs.String("cache-dir", "", "persistent result store directory (local runs only, not with -server)")
		server   = fs.String("server", "", "run the study's points on the distiqd at this base URL instead of in-process")
		quiet    = fs.Bool("quiet", false, "suppress the progress reporter on stderr")
	)
	if err := cliutil.ParseFlags(fs, argv); err != nil {
		return distiq.EngineStats{}, err
	}
	if err := cliutil.ValidateEngineFlags(*parallel, *cacheDir); err != nil {
		return distiq.EngineStats{}, err
	}
	// The study and scenario emitters accept the same format names.
	if !scenario.IsFormat(*format) {
		return distiq.EngineStats{}, cliutil.BadInput(fmt.Errorf("-format %q: want csv, json or md", *format))
	}
	if strings.Contains(*server, ",") {
		return distiq.EngineStats{}, cliutil.BadInput(fmt.Errorf("-server %q: takes one base URL", *server))
	}
	if *server != "" {
		if err := cliutil.RejectLocalEngineFlags(fs); err != nil {
			return distiq.EngineStats{}, err
		}
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
	if *server != "" {
		cl = distiq.NewRemoteClient(*server)
	} else {
		opts := []distiq.ClientOption{distiq.WithParallel(*parallel)}
		if *cacheDir != "" {
			opts = append(opts, distiq.WithStore(distiq.NewFSStore(*cacheDir)))
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
	stats := runStats(local, res)
	if err != nil {
		return stats, err
	}

	// Emit through the shared study emitter, so local and -server output
	// are byte-identical by construction.
	var buf bytes.Buffer
	if err := res.Emit(&buf, *format); err != nil {
		return stats, err
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
