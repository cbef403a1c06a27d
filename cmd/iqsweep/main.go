// Command iqsweep runs declarative experiment grids through the cached
// concurrent engine. A grid is either a JSON scenario spec (-spec) naming
// axes over the full machine — benchmarks/suites, issue-queue schemes and
// shapes, ROB size, pipeline widths, functional-unit counts, memory
// latencies, the perfect-disambiguation ablation — or the legacy
// queues × entries flags, which generate the equivalent spec
// (-dump-spec prints it).
//
// The grid runs through the Client layer: locally on the in-process
// engine (simulations shard across -parallel workers, -store selects a
// result-store backend reused across invocations) or, with -server, on
// a remote distiqd via its streaming endpoint. Same grid, byte-identical
// output either way. Output rows stay in deterministic grid order; a
// warm rerun performs zero simulations and emits identical bytes.
// Ctrl-C cancels cleanly (exit 130): scheduling stops, in-flight
// simulations finish and persist, and a rerun completes only the
// remainder.
//
// Result-store backends (-store SPEC; -cache-dir DIR remains as the
// alias for -store fs:DIR):
//
//	fs:DIR   on-disk distiq-v2 store
//	mem      in-memory (one process)
//
// Usage:
//
//	iqsweep -spec grid.json -cache-dir /tmp/distiq-cache
//	iqsweep -spec grid.json -store fs:/tmp/distiq-cache
//	iqsweep -spec grid.json -server http://localhost:8090
//	iqsweep -spec grid.json -format md -o results.md
//	iqsweep -scheme MixBUFF -queues 4,8,12,16 -entries 8,16,32 -suite fp
//	iqsweep -scheme IssueFIFO -queues 8,16 -entries 8 -bench swim,gzip -distr
//	iqsweep -scheme MixBUFF -queues 8 -dump-spec   # flags -> spec JSON
//
// Integrity: -manifest writes the sweep's tamper-evident Merkle
// manifest (leaves are the content-addressed hashes of the stored
// result entries, in grid order), and -verify-manifest re-hashes an
// on-disk store offline against such a manifest, exiting non-zero if
// any byte of any covered entry changed:
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
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
		fmt.Fprintf(os.Stderr, "iqsweep: %v\n", err)
		// Bad user input (engine knobs, unknown formats) exits 2 like a
		// flag error; system failures exit 1.
		os.Exit(cliutil.ExitCode(err))
	}
	// -dump-spec (and any future no-run mode) requests nothing from the
	// engine; only summarize when jobs were actually resolved.
	if stats.Requested > 0 {
		fmt.Fprintf(os.Stderr, "iqsweep: %d simulated, %d memory hits, %d disk hits, %d deduplicated\n",
			stats.Simulated, stats.MemoryHits, stats.DiskHits, stats.Shared)
	}
}

// run parses argv, assembles the grid spec (from -spec or the legacy
// flags), executes it and writes the formatted results. It returns the
// engine counters so tests can assert warm-cache behaviour.
func run(argv []string, stdout, stderr io.Writer) (distiq.EngineStats, error) {
	fs := flag.NewFlagSet("iqsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "JSON scenario-grid spec file (overrides the legacy grid flags)")
		format   = fs.String("format", "csv", "output format: csv, json or md")
		outPath  = fs.String("o", "", "write output to this file instead of stdout")
		dumpSpec = fs.Bool("dump-spec", false, "print the effective spec as JSON and exit without simulating")

		scheme  = fs.String("scheme", "MixBUFF", "legacy grid: IssueFIFO, LatFIFO or MixBUFF (FP side; int side fixed per -intq)")
		queues  = fs.String("queues", "8,12", "legacy grid: comma-separated FP queue counts")
		entries = fs.String("entries", "8,16", "legacy grid: comma-separated FP entries per queue")
		chains  = fs.String("chains", "0", "legacy grid: comma-separated chains per queue (MixBUFF; 0 = unbounded)")
		intq    = fs.String("intq", "16x16", "legacy grid: fixed integer queues AxB")
		suite   = fs.String("suite", "", "restrict to a suite: int or fp")
		benchCS = fs.String("bench", "", "comma-separated benchmarks (default: suite or all)")
		distr   = fs.Bool("distr", false, "legacy grid: distribute functional units")
		n       = fs.Uint64("n", 60_000, "instructions per run")
		warmup  = fs.Uint64("warmup", 10_000, "warmup instructions")

		parallel  = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial; local runs)")
		cacheDir  = fs.String("cache-dir", "", "persistent result store directory (alias for -store fs:DIR; local runs)")
		storeSpec = fs.String("store", "", "result-store backend: fs:DIR or mem (local runs)")
		server    = fs.String("server", "", "run the sweep on the distiqd at this base URL instead of in-process")
		quiet     = fs.Bool("quiet", false, "suppress the progress reporter on stderr")

		manifestOut = fs.String("manifest", "", "write the sweep's tamper-evident Merkle manifest to this JSON file")
		verifyPath  = fs.String("verify-manifest", "", "verify a manifest file against the -cache-dir or -store fs:DIR store and exit (no sweep runs)")
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

	if *verifyPath != "" {
		return distiq.EngineStats{}, verifyManifest(*verifyPath, effStore, stderr)
	}

	spec, err := assembleSpec(*specPath, legacyFlags{
		scheme: *scheme, queues: *queues, entries: *entries, chains: *chains,
		intq: *intq, suite: *suite, bench: *benchCS, distr: *distr,
		n: *n, warmup: *warmup,
	})
	if err != nil {
		// Bad spec files and bad legacy grid flags are user input, like
		// the engine knobs above: exit 2 (and 400 in distiqd).
		return distiq.EngineStats{}, cliutil.BadInput(err)
	}

	if *dumpSpec {
		data, err := spec.JSON()
		if err != nil {
			return distiq.EngineStats{}, err
		}
		fmt.Fprintln(stdout, string(data))
		return distiq.EngineStats{}, nil
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
	var store distiq.ResultStore
	if *server != "" {
		cl = distiq.NewRemoteClient(*server)
	} else {
		opts := []distiq.ClientOption{distiq.WithParallel(*parallel)}
		if effStore != "" {
			// The effective -store/-cache-dir spec opens here and closes
			// after the sweep.
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
	stream := cl.Sweep(ctx, grid)
	res, err := stream.ResultSet()
	if reporter != nil {
		reporter.Finish()
	}
	if store != nil {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
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

	// Emit through the shared scenario emitter — the same code path the
	// distiqd HTTP service uses, so -spec output, -server output and
	// service bodies are byte-identical by construction.
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

// writeManifest stores a completed sweep's Merkle manifest as JSON. The
// stream must have been fully consumed; a sweep over a grid that is not
// content-addressable (never the case for spec-expanded grids) has no
// manifest to write.
func writeManifest(path string, stream *distiq.SweepStream) error {
	m := stream.Manifest()
	if m == nil {
		return fmt.Errorf("sweep produced no manifest")
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verifyManifest re-derives a manifest's Merkle root from the bytes the
// on-disk store holds right now: every leaf's entry is re-fetched and
// re-hashed, so any post-sweep tampering — or a truncated or edited
// manifest — fails loudly (exit 1). storeSpec is the resolved
// -store/-cache-dir spec; it must name an fs: store, because a freshly
// opened mem store can never hold an entry.
func verifyManifest(path, storeSpec string, stderr io.Writer) error {
	if storeSpec == "" || storeSpec == "mem" {
		return cliutil.BadInput(fmt.Errorf("-verify-manifest needs the store to verify against: -cache-dir DIR or -store fs:DIR"))
	}
	m, err := distiq.LoadManifest(path)
	if err != nil {
		return err
	}
	store, err := distiq.OpenStore(storeSpec)
	if err != nil {
		return cliutil.BadInput(err)
	}
	defer store.Close() //nolint:errcheck // read-only use
	if err := m.VerifyIn(store); err != nil {
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

// legacyFlags carries the pre-spec grid flags; assembleSpec turns them
// into the equivalent scenario spec when no -spec file is given.
type legacyFlags struct {
	scheme, queues, entries, chains, intq, suite, bench string
	distr                                               bool
	n, warmup                                           uint64
}

func assembleSpec(specPath string, lf legacyFlags) (*distiq.ScenarioSpec, error) {
	if specPath != "" {
		return distiq.LoadScenarioSpec(specPath)
	}
	qs, err := ints(lf.queues)
	if err != nil {
		return nil, err
	}
	es, err := ints(lf.entries)
	if err != nil {
		return nil, err
	}
	chs, err := ints(lf.chains)
	if err != nil {
		return nil, err
	}
	spec := distiq.NewScenario("").WithScheme(distiq.SchemeAxis{
		Scheme: lf.scheme, IntQ: lf.intq,
		Queues: qs, Entries: es, Chains: chs, Distr: lf.distr,
	}).WithLengths(lf.warmup, lf.n)
	if lf.bench != "" {
		spec.WithBenchmarks(strings.Split(lf.bench, ",")...)
	} else if lf.suite != "" {
		spec.WithSuites(strings.ToLower(lf.suite))
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ints parses a comma-separated integer list.
func ints(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}
