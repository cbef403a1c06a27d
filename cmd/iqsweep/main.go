// Command iqsweep runs declarative experiment grids through the cached
// concurrent engine. A grid is a JSON scenario spec (-spec, required)
// naming axes over the full machine — benchmarks/suites, issue-queue
// schemes and shapes, ROB size, pipeline widths, functional-unit counts,
// memory latencies, the perfect-disambiguation ablation.
//
// The grid runs through the Client layer: locally on the in-process
// engine (simulations shard across -parallel workers, and -cache-dir
// names the on-disk distiq-v2 store reused across invocations) or, with
// -server, on a remote distiqd via its streaming endpoint. Same grid,
// byte-identical output either way. Output rows stay in deterministic
// grid order; a warm rerun performs zero simulations and emits
// identical bytes. Ctrl-C cancels cleanly (exit 130): scheduling stops,
// in-flight simulations finish and persist, and a rerun completes only
// the remainder. Bad flags, an unknown -format and bad specs exit 2
// before anything simulates; so do -cache-dir and -parallel beside
// -server, since the distiqd's own engine and store resolve a remote
// sweep.
//
// Usage:
//
//	iqsweep -spec grid.json -cache-dir /tmp/distiq-cache
//	iqsweep -spec grid.json -server http://localhost:8090
//	iqsweep -spec grid.json -format md -o results.md
//
// Integrity: -manifest writes the sweep's tamper-evident Merkle
// manifest (leaves are the content-addressed hashes of the stored
// result entries, in grid order), and -verify-manifest re-hashes an
// on-disk store offline against such a manifest, exiting non-zero if
// any byte of any covered entry changed. It runs no sweep, so beside it
// only -cache-dir may be given; any other flag exits 2:
//
//	iqsweep -spec grid.json -cache-dir /tmp/c -manifest sweep.json
//	iqsweep -verify-manifest sweep.json -cache-dir /tmp/c
//
// A spec sweeping scheme × ROB × perfect disambiguation:
//
//	{
//	  "name": "rob-ablation",
//	  "suites": ["fp"],
//	  "schemes": [{"scheme": "MB_distr"}, {"scheme": "IQ_64_64"}],
//	  "rob": [128, 256],
//	  "perfect_disambiguation": [false, true]
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
	// -verify-manifest requests nothing from the engine; only summarize
	// when jobs were actually resolved.
	if err == nil && stats.Requested > 0 {
		fmt.Fprintf(os.Stderr, "iqsweep: %d simulated, %d memory hits, %d disk hits, %d deduplicated\n",
			stats.Simulated, stats.MemoryHits, stats.DiskHits, stats.Shared)
	}
	cliutil.Exit("iqsweep", err)
}

// run parses argv, loads the grid spec, executes it and writes the
// formatted results. It returns the engine counters so tests can assert
// warm-cache behaviour.
func run(argv []string, stdout, stderr io.Writer) (distiq.EngineStats, error) {
	fs := flag.NewFlagSet("iqsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "JSON scenario-grid spec file (required unless -verify-manifest)")
		format   = fs.String("format", "csv", "output format: csv, json or md")
		outPath  = fs.String("o", "", "write output to this file instead of stdout")

		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial; local runs only, not with -server)")
		cacheDir = fs.String("cache-dir", "", "persistent result store directory (local runs only, not with -server)")
		server   = fs.String("server", "", "run the sweep on the distiqd at this base URL instead of in-process")
		quiet    = fs.Bool("quiet", false, "suppress the progress reporter on stderr")

		manifestOut = fs.String("manifest", "", "write the sweep's tamper-evident Merkle manifest to this JSON file")
		verifyPath  = fs.String("verify-manifest", "", "verify a manifest file against the -cache-dir store and exit (no sweep runs; takes no other flag)")
	)
	if err := cliutil.ParseFlags(fs, argv); err != nil {
		return distiq.EngineStats{}, err
	}
	if *verifyPath != "" {
		// Verification runs no sweep, so a sweep flag beside it would be
		// silently ignored: reject it instead.
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "verify-manifest", "cache-dir":
			default:
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			return distiq.EngineStats{}, cliutil.BadInput(fmt.Errorf(
				"-verify-manifest takes only -cache-dir beside it, not %s", strings.Join(extra, ", ")))
		}
	}
	if err := cliutil.ValidateEngineFlags(*parallel, *cacheDir); err != nil {
		return distiq.EngineStats{}, err
	}
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

	if *verifyPath != "" {
		return distiq.EngineStats{}, verifyManifest(*verifyPath, *cacheDir, stderr)
	}

	if *specPath == "" {
		return distiq.EngineStats{}, cliutil.BadInput(fmt.Errorf("-spec is required"))
	}
	spec, err := distiq.LoadScenarioSpec(*specPath)
	if err != nil {
		// Bad spec files are user input, like the engine knobs above:
		// exit 2 (and 400 in distiqd).
		return distiq.EngineStats{}, cliutil.BadInput(err)
	}
	grid, err := spec.Expand()
	if err != nil {
		return distiq.EngineStats{}, cliutil.BadInput(err)
	}

	// The sweep runs through the Client layer, local or remote by flag;
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
	stream := cl.Sweep(ctx, grid)
	res, err := stream.ResultSet()
	if reporter != nil {
		reporter.Finish()
	}
	stats := runStats(local, stream)
	if err != nil {
		return stats, err
	}

	if *manifestOut != "" {
		if err := writeManifest(*manifestOut, stream); err != nil {
			return stats, err
		}
	}

	// Emit through the shared scenario emitter, local or -server alike:
	// a -server sweep's streamed results decode to the exact results a
	// local run computes, so the outputs are byte-identical by
	// construction.
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

// writeManifest stores a completed sweep's Merkle manifest as JSON. The
// stream must have been fully consumed; a sweep over a grid that is not
// content-addressable (never the case for spec-expanded grids) has no
// manifest to write.
func writeManifest(path string, stream *distiq.SweepStream) error {
	m := stream.Manifest()
	if m == nil {
		return fmt.Errorf("sweep produced no manifest")
	}
	data, err := m.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verifyManifest re-derives a manifest's Merkle root from the bytes the
// on-disk store holds right now: every leaf's entry is re-fetched and
// re-hashed, so any post-sweep tampering — or a truncated or edited
// manifest — fails loudly (exit 1). dir is the -cache-dir store.
func verifyManifest(path, dir string, stderr io.Writer) error {
	if dir == "" {
		return cliutil.BadInput(fmt.Errorf("-verify-manifest needs the store to verify against: -cache-dir DIR"))
	}
	m, err := distiq.LoadManifest(path)
	if err != nil {
		return err
	}
	if err := m.VerifyIn(distiq.NewFSStore(dir)); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "iqsweep: manifest %s verified: %d points, root %s\n", path, m.Points, m.Root)
	return nil
}

// runStats reports how the sweep's jobs were resolved: the engine's own
// counters for a local run, or counters reconstructed from the stream's
// per-point sources for a remote one (the service resolved the jobs; the
// stream observed how).
func runStats(local *distiq.LocalClient, stream *distiq.SweepStream) distiq.EngineStats {
	if local != nil {
		return local.Stats()
	}
	return stream.Counts().Stats()
}
