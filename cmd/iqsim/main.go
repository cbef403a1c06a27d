// Command iqsim runs one benchmark under one issue-queue configuration and
// prints a full performance and energy report.
//
// Usage:
//
//	iqsim -bench swim -config MB_distr -n 200000
//	iqsim -bench gcc -config IssueFIFO -intq 8x8 -fpq 8x16
//	iqsim -bench swim -cache-dir /tmp/distiq-cache   # instant on rerun
//	iqsim -list
package main

import (
	"flag"
	"fmt"
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
	var (
		bench     = flag.String("bench", "swim", "benchmark name (see -list)")
		config    = flag.String("config", "MB_distr", "configuration: IQ_unbounded, IQ_64_64, IF_distr, MB_distr, IssueFIFO, LatFIFO, MixBUFF")
		intq      = flag.String("intq", "8x8", "integer queues AxB (IssueFIFO/LatFIFO/MixBUFF configs)")
		fpq       = flag.String("fpq", "8x16", "FP queues CxD")
		chains    = flag.Int("chains", 8, "chains per FP queue for MixBUFF (0 = unbounded)")
		distr     = flag.Bool("distr", false, "distribute functional units across queues")
		n         = flag.Uint64("n", 200_000, "instructions to measure")
		warmup    = flag.Uint64("warmup", 20_000, "warmup instructions")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		traceN    = flag.Int64("trace", 0, "print a pipeline trace for the first N cycles after warmup")
		showcfg   = flag.Bool("table1", false, "print the processor configuration and exit")
		parallel  = flag.Int("parallel", 1, "engine worker-pool size (one job needs no more)")
		cacheDir  = flag.String("cache-dir", "", "persistent result store directory (alias for -store fs:DIR); a rerun with the same job is served from the store (ignored with -trace)")
		storeSpec = flag.String("store", "", "result-store backend: fs:DIR or mem")
	)
	flag.Parse()

	if err := cliutil.ValidateParallel(*parallel); err != nil {
		fmt.Fprintln(os.Stderr, "iqsim:", err)
		os.Exit(2)
	}
	effStore, err := cliutil.ResolveStoreFlags(*storeSpec, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqsim:", err)
		os.Exit(2)
	}
	if *list {
		fmt.Println("SPECINT:", strings.Join(distiq.Benchmarks(distiq.SuiteInt), " "))
		fmt.Println("SPECFP: ", strings.Join(distiq.Benchmarks(distiq.SuiteFP), " "))
		return
	}
	if *showcfg {
		fmt.Print(distiq.Table1())
		return
	}

	cfg, err := resolveConfig(*config, *intq, *fpq, *chains, *distr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqsim:", err)
		os.Exit(1)
	}
	var res distiq.Result
	if *traceN > 0 {
		res, err = runTraced(*bench, cfg, *warmup, *n, *traceN)
	} else {
		// One job through the Client layer, bound to a signal context so
		// Ctrl-C interrupts a long run cleanly (exit 130).
		ctx, stop := cliutil.SignalContext()
		defer stop()
		opts := []distiq.ClientOption{distiq.WithParallel(*parallel)}
		var store distiq.ResultStore
		if effStore != "" {
			store, err = distiq.OpenStore(effStore)
			if err != nil {
				fmt.Fprintln(os.Stderr, "iqsim:", err)
				os.Exit(2)
			}
			opts = append(opts, distiq.WithStore(store))
		}
		cl := distiq.NewLocalClient(opts...)
		res, err = cl.Run(ctx, distiq.Job{
			Bench:  *bench,
			Config: cfg,
			Opt:    distiq.Options{Warmup: *warmup, Instructions: *n},
		})
		if store != nil {
			if cerr := store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if st := cl.Stats(); st.DiskHits > 0 {
			fmt.Fprintln(os.Stderr, "iqsim: result served from the persistent store")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqsim:", err)
		os.Exit(cliutil.ExitCode(err))
	}

	st := res.Stats
	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("configuration    %s\n", res.Config)
	fmt.Printf("instructions     %d\n", st.Committed)
	fmt.Printf("cycles           %d\n", st.Cycles)
	fmt.Printf("IPC              %.3f\n", res.IPC())
	fmt.Printf("branches         %d (%.1f%% mispredicted, %d misfetches)\n",
		st.Branches, 100*st.MispredictRate(), st.Misfetches)
	fmt.Printf("issued           %d int, %d fp\n", st.IssuedInt, st.IssuedFP)
	fmt.Printf("dispatch stalls  %d scheme, %d rob, %d regs (cycles)\n",
		st.StallScheme, st.StallROB, st.StallRegs)
	fmt.Printf("load forwards    %d\n", st.LoadForwards)
	fmt.Printf("\nissue-logic energy: %.1f nJ (%.2f pJ/instr)\n",
		res.IQEnergy/1000, res.IQEnergy/float64(st.Committed))
	fmt.Println("breakdown:")
	fmt.Print(res.Breakdown)
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
// to stdout (pipeview-style, one line per stage event).
func runTraced(bench string, cfg distiq.Config, warmup, n uint64, traceCycles int64) (distiq.Result, error) {
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
		W:    os.Stdout,
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
	res.IntBreakdown = power.NewCalc(intS.Geometry()).Energy(intS.Events())
	res.FPBreakdown = power.NewCalc(fpS.Geometry()).Energy(fpS.Events())
	res.Breakdown = power.Breakdown{}
	res.Breakdown.Add(res.IntBreakdown)
	res.Breakdown.Add(res.FPBreakdown)
	res.IQEnergy = res.Breakdown.Total()
	return res, nil
}
