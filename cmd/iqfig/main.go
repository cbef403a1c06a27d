// Command iqfig regenerates the figures of the paper's evaluation section.
//
// Usage:
//
//	iqfig -fig 8                      # one figure
//	iqfig -all                       # every figure (2-4, 6-15) plus Table 1
//	iqfig -all -n 500000             # longer runs for tighter numbers
//	iqfig -all -parallel 8           # 8 concurrent simulations
//	iqfig -all -cache-dir ~/.distiq  # reuse results across invocations
//	iqfig -cycletime -csv            # the cycle-time what-if study alone
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
// off on the next invocation. Bad flags exit 2, as do -fig beside -all
// and -cycletime beside either.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"distiq"
	"distiq/internal/cliutil"
)

func main() {
	cliutil.Exit("iqfig", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses argv, regenerates the requested figures or study and
// writes the tables to stdout, progress and the engine summary to
// stderr.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("iqfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figN     = fs.Int("fig", 0, "figure number to regenerate (2-4, 6-15)")
		all      = fs.Bool("all", false, "regenerate every figure (not with -fig)")
		n        = fs.Uint64("n", 100_000, "instructions measured per run")
		bars     = fs.Bool("bars", false, "render tables as ASCII bar charts")
		cycle    = fs.Bool("cycletime", false, "run the cycle-time what-if extension study (alone: not with -fig or -all)")
		csv      = fs.Bool("csv", false, "emit tables as CSV")
		md       = fs.Bool("md", false, "emit tables as markdown")
		warmup   = fs.Uint64("warmup", 20_000, "warmup instructions per run")
		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = fs.String("cache-dir", "", "persistent result store directory, reused across runs")
		quiet    = fs.Bool("quiet", false, "suppress the progress reporter on stderr")
	)
	if err := cliutil.ParseFlags(fs, argv); err != nil {
		return err
	}
	switch {
	case !*cycle && !*all && *figN == 0:
		fs.Usage()
		return cliutil.BadInput(errors.New("pass -fig N, -all or -cycletime"))
	case *cycle && (*all || *figN != 0):
		return cliutil.BadInput(errors.New("-cycletime runs alone, not with -fig or -all"))
	case *all && figSet(fs):
		return cliutil.BadInput(errors.New("-all regenerates every figure, not with -fig"))
	case !*cycle && !*all && !slices.Contains(distiq.FigureNumbers(), *figN):
		return cliutil.BadInput(fmt.Errorf("-fig %d: no such figure (valid: 2-4, 6-15)", *figN))
	}
	if err := cliutil.ValidateEngineFlags(*parallel, *cacheDir); err != nil {
		return err
	}

	// The figure harness rides the Client layer: build the local client
	// with functional options and bind the session to a signal context,
	// so Ctrl-C cancels mid-figure.
	opts := []distiq.ClientOption{distiq.WithParallel(*parallel)}
	if *cacheDir != "" {
		opts = append(opts, distiq.WithStore(distiq.NewFSStore(*cacheDir)))
	}
	var reporter *distiq.ConsoleReporter
	if !*quiet {
		reporter = distiq.NewConsoleReporter(stderr)
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
	render := func(tab distiq.Table) {
		switch {
		case *csv:
			fmt.Fprint(stdout, tab.CSV())
		case *md:
			fmt.Fprint(stdout, tab.Markdown())
		case *bars:
			fmt.Fprint(stdout, tab.Bars(48))
		default:
			fmt.Fprint(stdout, tab)
		}
	}

	if *cycle {
		tab, err := distiq.CycleTimeStudy(s)
		finish()
		if err != nil {
			return err
		}
		render(tab)
		summarize(stderr, s)
		return nil
	}

	figures := []int{*figN}
	if *all {
		figures = distiq.FigureNumbers()
		fmt.Fprint(stdout, distiq.Table1())
		fmt.Fprintln(stdout)
	}
	for _, fn := range figures {
		start := time.Now()
		tab, err := distiq.Figure(fn, s)
		finish()
		if err != nil {
			return err
		}
		render(tab)
		fmt.Fprintf(stdout, "(generated in %.1fs)\n\n", time.Since(start).Seconds())
	}
	summarize(stderr, s)
	return nil
}

// summarize reports how the engine resolved the session's jobs.
func summarize(w io.Writer, s *distiq.Session) {
	st := s.EngineStats()
	fmt.Fprintf(w, "iqfig: %d simulated, %d memory hits, %d disk hits, %d deduplicated\n",
		st.Simulated, st.MemoryHits, st.DiskHits, st.Shared)
}

// figSet reports whether -fig was given on the command line, whatever
// its value.
func figSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "fig" })
	return set
}
