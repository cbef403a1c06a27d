// Command iqbench measures the simulator's performance baseline and
// writes it as BENCH_<date>.json, so every PR leaves a comparable record
// of the per-job hot path and the engine's scaling behaviour.
//
// Three layers are measured over a fixed matrix:
//
//   - pipeline: the cycle-loop kernel per (scheme × benchmark) —
//     nanoseconds, instructions/sec, and heap allocations per committed
//     instruction, measured steady-state (after warmup, traces
//     pre-materialized in a trace cache, GC quiesced). Allocations per
//     instruction must stay at zero; this file is where regressions
//     surface.
//   - engine: the experiment engine over the same job grid, serial and
//     parallel, cold and warm-cache, with the engine's resolution
//     counters (simulated / memory hits / deduplicated).
//   - client: the Client layer (the public streaming API) over the same
//     grid versus direct engine.Simulate calls, so the per-sweep overhead
//     of the ordered stream is a recorded number; the warm case times the
//     pure Client + cache-lookup path with no simulation at all.
//
// Usage:
//
//	iqbench                      # full run, writes BENCH_<date>.json
//	iqbench -quick -o bench.json # CI smoke: small counts, fixed path
//	iqbench -o -                 # JSON to stdout
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
	"distiq/internal/scenario"
	"distiq/internal/sim"
	"distiq/internal/trace"
)

// Schema is the versioned identifier of the report layout. Bump it only
// when a field changes meaning; adding fields is compatible.
const Schema = "distiq-iqbench-v1"

// Report is the top-level BENCH_*.json document.
type Report struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"` // RFC3339, UTC
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`

	Warmup       uint64 `json:"warmup_insts"`
	Instructions uint64 `json:"measured_insts"`

	Pipeline []PipelineCase `json:"pipeline"`
	Engine   []EngineCase   `json:"engine"`
	// Client records the Client-layer cases (added in the distiqd Client
	// API redesign; a compatible extension of distiq-iqbench-v1 — absent
	// in older reports).
	Client     []EngineCase     `json:"client,omitempty"`
	TraceCache trace.CacheStats `json:"trace_cache"`
}

// PipelineCase is one steady-state cycle-loop measurement.
type PipelineCase struct {
	Scheme        string  `json:"scheme"`
	Bench         string  `json:"bench"`
	Insts         uint64  `json:"insts"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	NSPerInst     float64 `json:"ns_per_inst"`
	InstsPerSec   float64 `json:"insts_per_sec"`
	AllocsPerInst float64 `json:"allocs_per_inst"`
	BytesPerInst  float64 `json:"bytes_per_inst"`
	IPC           float64 `json:"ipc"`
}

// EngineCase is one engine-level grid run. A cold case's Insts counts
// only the jobs it resolved by simulation: the engine simulates each
// distinct machine once, and a job that took an equivalent job's run
// simulated nothing. A warm case simulates nothing; its Insts counts
// every job, so InstsPerSec is the rate of the lookup path.
type EngineCase struct {
	Name        string  `json:"name"`
	Parallel    int     `json:"parallel"`
	Warm        bool    `json:"warm"`
	Jobs        int     `json:"jobs"`
	Insts       uint64  `json:"insts"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	InstsPerSec float64 `json:"insts_per_sec"`
	Simulated   int64   `json:"simulated"`
	MemoryHits  int64   `json:"memory_hits"`
	Shared      int64   `json:"shared"`
}

// The fixed measurement matrix: the paper's three headline organizations
// over one integer and one floating-point model each of small and large
// working set, so both suites' behaviour is represented.
func schemes() []core.Config {
	return []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()}
}

var benchmarks = []string{"gcc", "mcf", "swim", "galgel"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", `output path; "" = BENCH_<date>.json in the working directory, "-" = stdout`)
		quick    = fs.Bool("quick", false, "small instruction counts for CI smoke runs")
		warmup   = fs.Uint64("warmup", 0, "override warmup instructions per run")
		insts    = fs.Uint64("insts", 0, "override measured instructions per run")
		parallel = fs.Int("parallel", 0, "worker-pool size of the parallel engine cases (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "iqbench: unexpected arguments %v\n", fs.Args())
		return 2
	}

	opt := engine.Options{Warmup: 20_000, Instructions: 100_000}
	if *quick {
		opt = engine.Options{Warmup: 2_000, Instructions: 10_000}
	}
	// Apply overrides by flag presence, so an explicit -warmup 0
	// (measure cold-start behaviour) is honored.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warmup":
			opt.Warmup = *warmup
		case "insts":
			opt.Instructions = *insts
		}
	})
	if opt.Instructions == 0 {
		fmt.Fprintln(stderr, "iqbench: -insts must be positive")
		return 2
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	now := time.Now().UTC()
	rep := Report{
		Schema:     Schema,
		Date:       now.Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,

		Warmup:       opt.Warmup,
		Instructions: opt.Instructions,
	}

	fmt.Fprintf(stderr, "iqbench: pipeline kernel (%d insts/run after %d warmup)\n",
		opt.Instructions, opt.Warmup)
	if err := measurePipeline(&rep, opt, stderr); err != nil {
		fmt.Fprintln(stderr, "iqbench:", err)
		return 1
	}

	fmt.Fprintf(stderr, "iqbench: engine grid (%d jobs; serial, parallel-%d cold and warm)\n",
		len(schemes())*len(benchmarks), workers)
	// Materialize the shared trace cache up front so the serial and
	// parallel cold cases pay the same (zero) one-time generation cost
	// and the comparison isolates engine scaling. The shared cache's
	// capacity is fixed; past it, jobs fall back to the production
	// fork-a-generator path, which the timing then includes.
	total := opt.Warmup + opt.Instructions + 4096
	if uint64(len(benchmarks))*total > trace.DefaultCacheCap {
		fmt.Fprintf(stderr, "iqbench: note: %d insts/benchmark exceeds the shared trace cache capacity; engine cases include trace generation\n", total)
	}
	if err := engine.WarmTraces(benchmarks, total); err != nil {
		fmt.Fprintln(stderr, "iqbench:", err)
		return 1
	}
	if err := measureEngine(&rep, opt, workers); err != nil {
		fmt.Fprintln(stderr, "iqbench:", err)
		return 1
	}
	fmt.Fprintln(stderr, "iqbench: client layer (direct simulate, client cold, client warm)")
	if err := measureClient(&rep, opt); err != nil {
		fmt.Fprintln(stderr, "iqbench:", err)
		return 1
	}
	rep.TraceCache = engine.TraceCacheStats()

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", now.Format("2006-01-02"))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "iqbench:", err)
		return 1
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "iqbench:", err)
		return 1
	}
	if path != "-" {
		fmt.Fprintf(stderr, "iqbench: wrote %s\n", path)
	}
	return 0
}

// measurePipeline runs the cycle-loop kernel for every matrix cell and
// records steady-state speed and allocation rates. Traces come from a
// local trace cache pre-materialized past the measured range, so the
// numbers isolate the pipeline (replay adds no generator work and no
// allocations to the measured window).
func measurePipeline(rep *Report, opt engine.Options, progress io.Writer) error {
	total := opt.Warmup + opt.Instructions
	// Size the local cache to hold every benchmark's full measured range,
	// so no reader ever outruns a recording cap and forks a generator
	// into the timed window (which would fold generation cost and its
	// allocations into numbers documented as pipeline-only).
	traces := trace.NewCache(len(benchmarks) * (int(total) + 4096))
	for _, bench := range benchmarks {
		model, err := trace.ByName(bench)
		if err != nil {
			return err
		}
		// Materialize the stream past the measured range (readers may
		// fetch a few hundred instructions ahead of commit).
		pre := traces.Reader(model)
		var in isa.Inst
		for i := uint64(0); i < total+4096; i++ {
			pre.Next(&in)
		}

		for _, cfg := range schemes() {
			p, err := pipeline.New(pipeline.DefaultConfig(cfg), traces.Reader(model))
			if err != nil {
				return err
			}
			p.Warmup(opt.Warmup)

			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			start := time.Now()
			p.Run(opt.Instructions)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)

			st := p.Stats()
			n := float64(st.Committed)
			rep.Pipeline = append(rep.Pipeline, PipelineCase{
				Scheme:        cfg.Name,
				Bench:         bench,
				Insts:         st.Committed,
				ElapsedNS:     elapsed.Nanoseconds(),
				NSPerInst:     float64(elapsed.Nanoseconds()) / n,
				InstsPerSec:   n / elapsed.Seconds(),
				AllocsPerInst: float64(m1.Mallocs-m0.Mallocs) / n,
				BytesPerInst:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
				IPC:           st.IPC(),
			})
			fmt.Fprintf(progress, "  %-10s %-8s %8.0f insts/sec  %.4f allocs/inst\n",
				cfg.Name, bench,
				rep.Pipeline[len(rep.Pipeline)-1].InstsPerSec,
				rep.Pipeline[len(rep.Pipeline)-1].AllocsPerInst)
		}
	}
	return nil
}

// measureEngine runs the full grid through fresh sessions: strictly
// serial, parallel cold, and a warm rerun on the parallel session (every
// job a memory hit).
func measureEngine(rep *Report, opt engine.Options, workers int) error {
	// simulated holds the keys of the jobs the current case resolved by
	// simulation; the sessions' progress callbacks fill it.
	var simulated map[string]bool
	progress := func(p engine.Progress) {
		if p.Source == engine.SourceSimulated {
			simulated[p.Job.Key()] = true
		}
	}
	grid := func(s *sim.Session, warm bool) (uint64, error) {
		if err := s.Prefetch(benchmarks, schemes()...); err != nil {
			return 0, err
		}
		var insts uint64
		for _, b := range benchmarks {
			for _, cfg := range schemes() {
				r, err := s.Result(b, cfg)
				if err != nil {
					return 0, err
				}
				if warm || simulated[engine.Job{Bench: b, Config: cfg, Opt: opt}.Key()] {
					insts += r.Insts
				}
			}
		}
		return insts, nil
	}
	jobs := len(benchmarks) * len(schemes())

	record := func(name string, par int, warm bool, s *sim.Session) error {
		before := s.EngineStats() // session counters are cumulative
		simulated = map[string]bool{}
		start := time.Now()
		insts, err := grid(s, warm)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		st := s.EngineStats()
		rep.Engine = append(rep.Engine, EngineCase{
			Name:        name,
			Parallel:    par,
			Warm:        warm,
			Jobs:        jobs,
			Insts:       insts,
			ElapsedNS:   elapsed.Nanoseconds(),
			InstsPerSec: float64(insts) / elapsed.Seconds(),
			Simulated:   st.Simulated - before.Simulated,
			MemoryHits:  st.MemoryHits - before.MemoryHits,
			Shared:      st.Shared - before.Shared,
		})
		return nil
	}

	serial := sim.NewSessionWith(sim.SessionConfig{Opt: opt, Parallel: 1, Progress: progress})
	if err := record("serial-cold", 1, false, serial); err != nil {
		return err
	}
	par := sim.NewSessionWith(sim.SessionConfig{Opt: opt, Parallel: workers, Progress: progress})
	if err := record(fmt.Sprintf("parallel%d-cold", workers), workers, false, par); err != nil {
		return err
	}
	// Warm rerun on the same session: the whole grid resolves from the
	// in-memory result cache; this times the lookup path.
	return record(fmt.Sprintf("parallel%d-warm", workers), workers, true, par)
}

// measureClient times the Client layer against direct engine.Simulate
// over the same grid, all strictly serial so the comparison isolates the
// layer itself (ordered streaming, scenario bookkeeping) rather than
// scheduling: "direct-simulate" is the floor, "client-serial-cold" adds
// the Client + engine path around the same simulations, and
// "client-serial-warm" reruns the sweep against the warm in-memory cache
// — the pure per-point overhead with simulation cost removed. The client
// simulates each distinct machine once, so its cold sweep runs fewer
// simulations than "direct-simulate" (gcc and mcf hold no FP operation,
// so their MB_distr jobs take IF_distr's runs); compare the two by
// InstsPerSec, which credits only simulated instructions.
func measureClient(rep *Report, opt engine.Options) error {
	spec := scenario.New("iqbench").
		WithBenchmarks(benchmarks...).
		WithNamed("IQ_64_64", "IF_distr", "MB_distr").
		WithLengths(opt.Warmup, opt.Instructions)
	grid, err := spec.Expand()
	if err != nil {
		return err
	}
	jobs := grid.Size()

	// Floor: raw simulation calls, no engine, no client, no caches.
	var direct uint64
	start := time.Now()
	for _, j := range grid.Jobs() {
		r, err := engine.Simulate(j)
		if err != nil {
			return err
		}
		direct += r.Insts
	}
	elapsed := time.Since(start)
	rep.Client = append(rep.Client, EngineCase{
		Name: "direct-simulate", Parallel: 1, Jobs: jobs, Insts: direct,
		ElapsedNS: elapsed.Nanoseconds(), InstsPerSec: float64(direct) / elapsed.Seconds(),
		Simulated: int64(jobs),
	})

	cl := client.NewLocal(client.WithParallel(1))
	sweep := func(name string, warm bool) error {
		before := cl.Stats()
		var insts uint64
		start := time.Now()
		st := cl.Sweep(context.Background(), grid)
		for st.Next() {
			if u := st.Update(); warm || u.Source == engine.SourceSimulated {
				insts += u.Result.Insts
			}
		}
		elapsed := time.Since(start)
		if err := st.Err(); err != nil {
			return err
		}
		stats := cl.Stats()
		rep.Client = append(rep.Client, EngineCase{
			Name: name, Parallel: 1, Warm: warm, Jobs: jobs, Insts: insts,
			ElapsedNS: elapsed.Nanoseconds(), InstsPerSec: float64(insts) / elapsed.Seconds(),
			Simulated:  stats.Simulated - before.Simulated,
			MemoryHits: stats.MemoryHits - before.MemoryHits,
			Shared:     stats.Shared - before.Shared,
		})
		return nil
	}
	if err := sweep("client-serial-cold", false); err != nil {
		return err
	}
	return sweep("client-serial-warm", true)
}
