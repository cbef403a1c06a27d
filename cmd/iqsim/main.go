// Command iqsim runs one benchmark under one issue-queue configuration and
// prints a full performance and energy report.
//
// Usage:
//
//	iqsim -bench swim -config MB_distr -n 200000
//	iqsim -bench gcc -config IssueFIFO -intq 8x8 -fpq 8x16
//	iqsim -bench swim -cache-dir /tmp/distiq-cache   # instant on rerun
//	iqsim -list
//
// A bad flag, configuration, queue shape or benchmark exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"distiq"
	"distiq/internal/cliutil"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
	"distiq/internal/power"
	"distiq/internal/trace"
)

func main() {
	cliutil.Exit("iqsim", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses argv, resolves the one job and writes its report to
// stdout. A bad flag, configuration, queue shape or benchmark is bad
// input (exit 2), rejected before anything simulates.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("iqsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "swim", "benchmark name (see -list)")
		config   = fs.String("config", "MB_distr", "configuration: IQ_unbounded, IQ_64_64, IF_distr, MB_distr, IssueFIFO, LatFIFO, MixBUFF")
		intq     = fs.String("intq", "8x8", "integer queues AxB (IssueFIFO/LatFIFO/MixBUFF configs)")
		fpq      = fs.String("fpq", "8x16", "FP queues CxD")
		chains   = fs.Int("chains", 8, "chains per FP queue for MixBUFF (0 = unbounded)")
		distr    = fs.Bool("distr", false, "distribute functional units across queues")
		n        = fs.Uint64("n", 200_000, "instructions to measure")
		warmup   = fs.Uint64("warmup", 20_000, "warmup instructions")
		list     = fs.Bool("list", false, "list benchmarks and exit")
		traceN   = fs.Int64("trace", 0, "print a pipeline trace for the first N cycles after warmup")
		showcfg  = fs.Bool("table1", false, "print the processor configuration and exit")
		cacheDir = fs.String("cache-dir", "", "persistent result store directory; a rerun with the same job is served from the store (ignored with -trace)")
	)
	if err := cliutil.ParseFlags(fs, argv); err != nil {
		return err
	}
	if err := cliutil.ValidateCacheDir(*cacheDir); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, "SPECINT:", strings.Join(distiq.Benchmarks(distiq.SuiteInt), " "))
		fmt.Fprintln(stdout, "SPECFP: ", strings.Join(distiq.Benchmarks(distiq.SuiteFP), " "))
		return nil
	}
	if *showcfg {
		fmt.Fprint(stdout, distiq.Table1())
		return nil
	}

	cfg, err := resolveConfig(*config, *intq, *fpq, *chains, *distr)
	if err != nil {
		return cliutil.BadInput(err)
	}
	if _, err := distiq.WorkloadByName(*bench); err != nil {
		return cliutil.BadInput(err)
	}
	var res distiq.Result
	if *traceN > 0 {
		res, err = runTraced(stdout, *bench, cfg, *warmup, *n, *traceN)
	} else {
		// One job through the Client layer, bound to a signal context so
		// Ctrl-C interrupts a long run cleanly (exit 130).
		ctx, stop := cliutil.SignalContext()
		defer stop()
		var opts []distiq.ClientOption
		if *cacheDir != "" {
			opts = append(opts, distiq.WithStore(distiq.NewFSStore(*cacheDir)))
		}
		cl := distiq.NewLocalClient(opts...)
		res, err = cl.Run(ctx, distiq.Job{
			Bench:  *bench,
			Config: cfg,
			Opt:    distiq.Options{Warmup: *warmup, Instructions: *n},
		})
		if st := cl.Stats(); st.DiskHits > 0 {
			fmt.Fprintln(stderr, "iqsim: result served from the persistent store")
		}
	}
	if err != nil {
		return err
	}

	st := res.Stats
	fmt.Fprintf(stdout, "benchmark        %s\n", res.Benchmark)
	fmt.Fprintf(stdout, "configuration    %s\n", res.Config)
	fmt.Fprintf(stdout, "instructions     %d\n", st.Committed)
	fmt.Fprintf(stdout, "cycles           %d\n", st.Cycles)
	fmt.Fprintf(stdout, "IPC              %.3f\n", res.IPC())
	fmt.Fprintf(stdout, "branches         %d (%.1f%% mispredicted, %d misfetches)\n",
		st.Branches, 100*st.MispredictRate(), st.Misfetches)
	fmt.Fprintf(stdout, "issued           %d int, %d fp\n", st.IssuedInt, st.IssuedFP)
	fmt.Fprintf(stdout, "dispatch stalls  %d scheme, %d rob, %d regs (cycles)\n",
		st.StallScheme, st.StallROB, st.StallRegs)
	fmt.Fprintf(stdout, "load forwards    %d\n", st.LoadForwards)
	fmt.Fprintf(stdout, "\nissue-logic energy: %.1f nJ (%.2f pJ/instr)\n",
		res.IQEnergy/1000, res.IQEnergy/float64(st.Committed))
	fmt.Fprintln(stdout, "breakdown:")
	fmt.Fprint(stdout, res.Breakdown())
	return nil
}

// resolveConfig maps command-line naming to a core configuration.
func resolveConfig(name, intq, fpq string, chains int, distr bool) (distiq.Config, error) {
	var a, b, c, d int
	if _, err := fmt.Sscanf(intq, "%dx%d", &a, &b); err != nil {
		return distiq.Config{}, fmt.Errorf("bad -intq %q: %v", intq, err)
	}
	if _, err := fmt.Sscanf(fpq, "%dx%d", &c, &d); err != nil {
		return distiq.Config{}, fmt.Errorf("bad -fpq %q: %v", fpq, err)
	}
	var cfg distiq.Config
	switch name {
	case "IQ_unbounded", "unbounded":
		cfg = distiq.Unbounded()
	case "IQ_64_64", "baseline":
		cfg = distiq.Baseline64()
	case "IF_distr":
		cfg = distiq.IFDistr()
	case "MB_distr":
		cfg = distiq.MBDistr()
	case "IssueFIFO":
		cfg = distiq.IssueFIFOCfg(a, b, c, d)
	case "LatFIFO":
		cfg = distiq.LatFIFOCfg(a, b, c, d)
	case "MixBUFF":
		cfg = distiq.MixBUFFCfg(a, b, c, d, chains)
	default:
		return distiq.Config{}, fmt.Errorf("unknown configuration %q", name)
	}
	if distr {
		cfg.DistributedFU = true
		cfg.Name += "_distr"
	}
	return cfg, cfg.Validate()
}

// runTraced runs the benchmark with a cycle-window pipeline trace printed
// to w (pipeview-style, one line per stage event).
func runTraced(w io.Writer, bench string, cfg distiq.Config, warmup, n uint64, traceCycles int64) (distiq.Result, error) {
	model, err := distiq.WorkloadByName(bench)
	if err != nil {
		return distiq.Result{}, err
	}
	gen := trace.NewGenerator(model)
	p, err := distiq.NewPipeline(distiq.DefaultProcessor(cfg), gen)
	if err != nil {
		return distiq.Result{}, err
	}
	p.Warmup(warmup)
	p.SetTracer(&pipeline.TextTracer{
		W:    w,
		From: p.CurrentCycle(),
		To:   p.CurrentCycle() + traceCycles,
	})
	p.Run(n)

	st := p.Stats()
	res := distiq.Result{Stats: st}
	res.Benchmark = bench
	res.Config = cfg.Name
	res.Insts = st.Committed
	res.Cycles = st.Cycles
	intS, fpS := p.Scheme(isa.IntDomain), p.Scheme(isa.FPDomain)
	res.SetEnergy(power.NewCalc(intS.Geometry()).Energy(intS.Events()),
		power.NewCalc(fpS.Geometry()).Energy(fpS.Events()))
	return res, nil
}
