// Command iqfig regenerates the figures of the paper's evaluation section.
//
// Usage:
//
//	iqfig -fig 8                      # one figure
//	iqfig -all                       # every figure (2-4, 6-15) plus Table 1
//	iqfig -all -n 500000             # longer runs for tighter numbers
//	iqfig -all -parallel 8           # 8 concurrent simulations
//	iqfig -all -cache-dir ~/.distiq  # reuse results across invocations
//
// Simulations fan out across the engine's worker pool (GOMAXPROCS-wide by
// default; -parallel 1 forces serial execution) and are deterministic per
// job, so tables are byte-identical at any parallelism. With -cache-dir,
// results persist on disk and a rerun performs zero new simulations.
// Progress and an engine summary go to stderr; tables go to stdout.
//
// The session is bound to a signal context: Ctrl-C stops scheduling new
// simulations (in-flight ones finish and persist to -cache-dir) and the
// command exits 130, so an interrupted -all run resumes where it left
// off on the next invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"distiq"
	"distiq/internal/cliutil"
)

// fail reports err and exits with the taxonomy code (130 for Ctrl-C,
// 2 for bad input, 1 otherwise).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "iqfig:", err)
	os.Exit(cliutil.ExitCode(err))
}

func main() {
	var (
		figN      = flag.Int("fig", 0, "figure number to regenerate (2-4, 6-15)")
		all       = flag.Bool("all", false, "regenerate every figure")
		n         = flag.Uint64("n", 100_000, "instructions measured per run")
		bars      = flag.Bool("bars", false, "render figures as ASCII bar charts")
		cycle     = flag.Bool("cycletime", false, "run the cycle-time what-if extension study")
		csv       = flag.Bool("csv", false, "emit tables as CSV")
		md        = flag.Bool("md", false, "emit tables as markdown")
		warmup    = flag.Uint64("warmup", 20_000, "warmup instructions per run")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		cacheDir  = flag.String("cache-dir", "", "persistent result store directory (alias for -store fs:DIR), reused across runs")
		storeSpec = flag.String("store", "", "result-store backend: fs:DIR or mem")
		quiet     = flag.Bool("quiet", false, "suppress the progress reporter on stderr")
	)
	flag.Parse()

	if !*cycle && !*all && *figN == 0 {
		fmt.Fprintln(os.Stderr, "iqfig: pass -fig N, -all or -cycletime")
		flag.Usage()
		os.Exit(2)
	}
	if err := cliutil.ValidateParallel(*parallel); err != nil {
		fmt.Fprintln(os.Stderr, "iqfig:", err)
		os.Exit(2)
	}
	effStore, err := cliutil.ResolveStoreFlags(*storeSpec, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqfig:", err)
		os.Exit(2)
	}

	// The figure harness rides the Client layer: build the local client
	// with functional options and bind the session to a signal context,
	// so Ctrl-C cancels mid-figure.
	opts := []distiq.ClientOption{distiq.WithParallel(*parallel)}
	if effStore != "" {
		store, err := distiq.OpenStore(effStore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iqfig:", err)
			os.Exit(2)
		}
		// A failed Close is reported but does not fail the run — the
		// figures already printed.
		defer func() {
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "iqfig:", cerr)
			}
		}()
		opts = append(opts, distiq.WithStore(store))
	}
	var reporter *distiq.ConsoleReporter
	if !*quiet {
		reporter = distiq.NewConsoleReporter(os.Stderr)
		opts = append(opts, distiq.WithProgress(reporter.Report))
	}
	ctx, stop := cliutil.SignalContext()
	defer stop()
	s := distiq.NewSessionClient(
		distiq.Options{Warmup: *warmup, Instructions: *n},
		distiq.NewLocalClient(opts...),
	).WithContext(ctx)
	finish := func() {
		if reporter != nil {
			reporter.Finish()
		}
	}

	if *cycle {
		tab, err := distiq.CycleTimeStudy(s)
		finish()
		if err != nil {
			fail(err)
		}
		fmt.Print(tab)
		summarize(s)
		return
	}

	figures := []int{*figN}
	if *all {
		figures = distiq.FigureNumbers()
		fmt.Print(distiq.Table1())
		fmt.Println()
	}
	for _, fn := range figures {
		start := time.Now()
		tab, err := distiq.Figure(fn, s)
		finish()
		if err != nil {
			fail(err)
		}
		switch {
		case *csv:
			fmt.Print(tab.CSV())
		case *md:
			fmt.Print(tab.Markdown())
		case *bars:
			fmt.Print(tab.Bars(48))
		default:
			fmt.Print(tab)
		}
		fmt.Printf("(generated in %.1fs)\n\n", time.Since(start).Seconds())
	}
	summarize(s)
}

// summarize reports how the engine resolved the session's jobs.
func summarize(s *distiq.Session) {
	st := s.EngineStats()
	fmt.Fprintf(os.Stderr, "iqfig: %d simulated, %d memory hits, %d disk hits, %d deduplicated\n",
		st.Simulated, st.MemoryHits, st.DiskHits, st.Shared)
}
