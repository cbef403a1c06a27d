// Command iqtrace inspects the synthetic workload models: instruction mix,
// branch behaviour and dependence-graph width. It documents why the
// integer and FP suites exercise the issue-queue organizations so
// differently.
//
// Usage:
//
//	iqtrace                          # summary of all 26 benchmarks
//	iqtrace -bench swim              # detailed report for one benchmark
//	iqtrace -bench swim -dump t.diqt # capture a binary trace file
//	iqtrace -replay t.diqt           # summarize a captured trace file
//
// Bad input (a non-positive -n, an unknown benchmark, -dump without
// -bench, an unreadable replay file) exits 2; other failures exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"distiq"
	"distiq/internal/cliutil"
	"distiq/internal/isa"
	"distiq/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "", "benchmark to inspect in detail (default: summarize all)")
		n      = flag.Int("n", 100_000, "instructions to sample")
		dump   = flag.String("dump", "", "capture the benchmark to a binary trace file")
		replay = flag.String("replay", "", "summarize a previously captured trace file")
	)
	flag.Parse()

	cliutil.Exit("iqtrace", run(os.Stdout, *bench, *n, *dump, *replay))
}

// run dispatches the command's modes: replay a captured file, capture a
// benchmark, report one benchmark in detail, or summarize all of them.
func run(w io.Writer, bench string, n int, dump, replay string) error {
	if n <= 0 {
		return cliutil.BadInput(fmt.Errorf("-n %d: must be positive", n))
	}
	switch {
	case replay != "":
		// Every error here comes from reading the file the caller named.
		return cliutil.BadInput(summarizeFile(w, replay, n))
	case dump != "":
		return captureFile(w, bench, dump, n)
	case bench != "":
		return detailBenchmark(w, bench, n)
	default:
		return summarizeAll(w, n)
	}
}

// captureFile writes a benchmark's instruction stream to a binary trace
// file.
func captureFile(w io.Writer, bench, path string, n int) error {
	if bench == "" {
		return cliutil.BadInput(fmt.Errorf("-dump requires -bench"))
	}
	model, err := trace.ByName(bench)
	if err != nil {
		return cliutil.BadInput(err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Capture(f, model, n); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "captured %d instructions of %s to %s\n", n, bench, path)
	return nil
}

// detailBenchmark prints one benchmark's full workload statistics.
func detailBenchmark(w io.Writer, bench string, n int) error {
	model, err := trace.ByName(bench)
	if err != nil {
		return cliutil.BadInput(err)
	}
	g := trace.NewGenerator(model)
	st := trace.CollectStats(g, n)
	fmt.Fprintf(w, "%s (%s, %d static instructions)\n", model.Name, model.Suite, g.StaticSize())
	fmt.Fprint(w, st)
	return nil
}

// summarizeAll prints the one-line-per-benchmark characterization table.
func summarizeAll(w io.Writer, n int) error {
	fmt.Fprintf(w, "%-10s %-8s %7s %7s %7s %7s %9s\n",
		"benchmark", "suite", "branch%", "mem%", "fp%", "taken%", "fp-width")
	for _, name := range distiq.AllBenchmarks() {
		model := trace.MustByName(name)
		g := trace.NewGenerator(model)
		st := trace.CollectStats(g, n)
		memFrac := float64(st.ByClass[isa.Load]+st.ByClass[isa.Store]) / float64(st.Total)
		fmt.Fprintf(w, "%-10s %-8s %6.1f%% %6.1f%% %6.1f%% %6.1f%% %9.1f\n",
			name, model.Suite,
			100*st.BranchFrac(), 100*memFrac, 100*st.FPFrac(),
			100*st.TakenRate(), st.WindowChainWidth)
	}
	return nil
}

// summarizeFile prints the class mix of a captured trace file.
func summarizeFile(w io.Writer, path string, n int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace of %s\n", r.Benchmark())
	var counts [isa.NumClasses]uint64
	var in isa.Inst
	for i := 0; i < n; i++ {
		if err := r.ReadInst(&in); err != nil {
			return err
		}
		counts[in.Class]++
		if r.Wraps > 0 {
			break // one full pass is enough for a summary
		}
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s %6.2f%%\n", c, 100*float64(counts[c])/float64(total))
	}
	fmt.Fprintf(w, "  records: %d\n", total)
	return nil
}
