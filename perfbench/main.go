// Command perfbench is distiq's benchmark. It runs one workload for a
// fixed wall-clock window from a single process, checks that every
// simulated result is correct, and prints its metrics as one JSON object
// on the last line of standard output:
//
//	perfbench --workload fp-solo --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user sees
// (throughput, latency, set-up time, memory). With --trace 1 half the
// window runs untraced and half under a CPU profile and in-memory spans,
// and the metrics are per layer. See README.md for every metric, its
// workload definition and the correctness checks.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"distiq/internal/engine"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. The last set-up is the one the timed window uses.
const setupReps = 5

// runConfig is one benchmark invocation.
type runConfig struct {
	seed    uint64
	window  time.Duration
	trace   bool
	workDir string // scratch space inside the checkout
	workers int    // engine workers, client callers and GOMAXPROCS
	// pinned is the digest the default seed must reproduce ("" = none).
	pinned string
}

// windowStats is what one timed window measured.
type windowStats struct {
	wall       time.Duration
	points     int    // points delivered
	errors     int    // points that failed with an error
	mismatches int    // delivered points whose result failed a check
	simInsts   uint64 // committed instructions of points resolved by simulation
	firstPoint []time.Duration
	requests   []time.Duration
	firstErr   error // the first point error, for the report
}

// fail counts n points that failed with err.
func (w *windowStats) fail(n int, err error) {
	w.errors += n
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *windowStats) add(o windowStats) {
	w.wall += o.wall
	w.points += o.points
	w.errors += o.errors
	w.mismatches += o.mismatches
	w.simInsts += o.simInsts
	w.firstPoint = append(w.firstPoint, o.firstPoint...)
	w.requests = append(w.requests, o.requests...)
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// check is one correctness check made outside the timed window.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// derive returns the replication seed of one input stream of a run:
// stream 0 is the workload seed itself (seed 0 = the canonical
// instruction streams), every other stream a fresh seed hashed from both
// (splitmix64), so distinct streams never share traces or results.
func derive(seed, stream uint64) uint64 {
	if stream == 0 {
		return seed
	}
	x := seed ^ stream*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// session is a set-up workload.
type session interface {
	// window runs the workload's load for d (finishing the units in
	// flight at the deadline); tr is nil when untraced. Failed points are
	// counted in the stats; an error means the benchmark itself broke.
	window(ctx context.Context, d time.Duration, tr *tracer) (windowStats, error)
	// verify runs the correctness checks after the timed windows.
	verify(cfg *runConfig) []check
	// digest is the results digest the pinned value covers.
	digest() string
	// modelResults are the results the model-output metrics summarize.
	modelResults() []engine.Result
	// layerMetrics adds the workload's own per-layer metrics after the
	// traced window, whose stats are given.
	layerMetrics(ctx context.Context, cfg *runConfig, m metrics, tr *tracer, traced windowStats) error
	close() error
}

// workload sets a session up; variant 0 is the one whose inputs the seed
// defines, other variants are throw-away set-ups on fresh inputs.
type workload struct {
	name  string
	setup func(cfg *runConfig, variant int) (session, error)
}

var workloads = []workload{fpSolo, intSweep, serviceMixed}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name: fp-solo, int-sweep or service-mixed")
		seed    = fs.Uint64("seed", 0, "workload seed (0 = canonical instruction streams)")
		secs    = fs.Float64("seconds", 20, "length of the timed window")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workDir = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores, profiles and spans")
		pin     = fs.Bool("pin", false, "print the default seed's digests, computed without caches, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := runtime.NumCPU()
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if *pin {
		return printPins(stdout, stderr)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload fp-solo|int-sweep|service-mixed, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := &runConfig{
		seed:    *seed,
		window:  time.Duration(*secs * float64(time.Second)),
		trace:   *trace == 1,
		workDir: *workDir,
		workers: workers,
	}
	if cfg.seed == 0 {
		pins, err := pinnedDigests()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		cfg.pinned = pins[wl.name]
	}
	res, err := runWorkload(context.Background(), wl, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	res.report["host"] = hostFacts(workers)
	res.print(stdout, stderr)
	return 0
}

// result is one run's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// report is printed on the line before the result: host facts,
	// spreads, sample counts, checks and notes.
	report map[string]any
}

func (r *result) print(stdout, stderr io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "  %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	rep, _ := json.Marshal(map[string]any{"report": r.report})
	fmt.Fprintln(stdout, string(rep))
	line, _ := json.Marshal(r)
	fmt.Fprintln(stdout, string(line))
}

// runWorkload sets the workload up setupReps times, runs its timed
// window(s), checks the results and assembles the metrics.
func runWorkload(ctx context.Context, wl *workload, cfg *runConfig) (*result, error) {
	var sess session
	var setups []time.Duration
	for v := setupReps - 1; v >= 0; v-- {
		start := time.Now()
		s, err := wl.setup(cfg, v)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		if v > 0 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			continue
		}
		sess = s
	}
	defer sess.close()

	res := &result{Metrics: metrics{}, report: map[string]any{
		"workload": wl.name, "seed": cfg.seed, "trace": cfg.trace,
	}}
	var ws windowStats
	if !cfg.trace {
		w, err := sess.window(ctx, cfg.window, nil)
		if err != nil {
			return nil, err
		}
		ws = w
	} else {
		w, err := tracedWindow(ctx, wl, sess, cfg, res)
		if err != nil {
			return nil, err
		}
		ws = w
	}

	checks := sess.verify(cfg)
	res.report["checks"] = checks
	res.report["digest"] = sess.digest()
	res.Attempted = ws.points + ws.errors
	res.Failed = ws.errors + ws.mismatches
	res.Correct = res.Failed == 0
	for _, c := range checks {
		if !c.OK {
			// A digest mismatch condemns every point of the run.
			res.Correct = false
			res.Failed = res.Attempted
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no point completed in the window")
	}
	res.report["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	if ws.firstErr != nil {
		res.report["first_error"] = ws.firstErr.Error()
	}

	if !cfg.trace {
		wall := ws.wall.Seconds()
		res.Metrics.set("sim_insts_per_s", "insts/s", float64(ws.simInsts)/wall)
		res.Metrics.set("points_per_s", "points/s", float64(ws.points)/wall)
		res.Metrics.set("first_point_s", "s", median(seconds(ws.firstPoint, 1)))
		res.Metrics.set("request_p50_ms", "ms", quantile(seconds(ws.requests, 1e3), 0.50))
		res.Metrics.set("request_p99_ms", "ms", quantile(seconds(ws.requests, 1e3), 0.99))
		res.Metrics.set("peak_mem_mb", "MB", peakMemMB())
		res.Metrics.set("setup_s", "s", median(seconds(setups, 1)))
	}
	res.report["samples"] = map[string]any{
		"setup_s":       summarize(seconds(setups, 1)),
		"first_point_s": summarize(seconds(ws.firstPoint, 1)),
		"request_ms":    summarize(seconds(ws.requests, 1e3)),
		"points":        ws.points,
		"window_s":      ws.wall.Seconds(),
	}
	return res, nil
}

// tracedWindow runs half the window untraced and half under a CPU
// profile and spans, then adds every per-layer metric.
func tracedWindow(ctx context.Context, wl *workload, sess session, cfg *runConfig, res *result) (windowStats, error) {
	var ws windowStats
	plain, err := sess.window(ctx, cfg.window/2, nil)
	if err != nil {
		return ws, err
	}
	ws.add(plain)

	tr := newTracer()
	stem := filepath.Join(cfg.workDir, fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
	f, err := os.Create(stem + ".pprof")
	if err != nil {
		return ws, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return ws, err
	}
	streams := engine.TraceCacheStats().Misses
	traced, err := sess.window(ctx, cfg.window/2, tr)
	pprof.StopCPUProfile()
	streams = engine.TraceCacheStats().Misses - streams
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ws, err
	}
	ws.add(traced)

	m := res.Metrics
	m.set("trace.streams_generated", "count", float64(streams))
	untracedRate := float64(plain.simInsts) / plain.wall.Seconds()
	tracedRate := float64(traced.simInsts) / traced.wall.Seconds()
	m.set("tracing.sim_insts_per_s_untraced", "insts/s", untracedRate)
	m.set("tracing.sim_insts_per_s_traced", "insts/s", tracedRate)
	m.set("tracing.overhead_frac", "fraction", 1-tracedRate/untracedRate)

	shares, err := analyzeProfile(stem + ".pprof")
	if err != nil {
		return ws, err
	}
	for _, l := range profileLayers {
		m.set(l+".cpu_share", "fraction", shares.Layer[l])
	}
	for name := range frameShares {
		m.set(name, "fraction", shares.Frame[name])
	}
	m.set("core.map_hash_share", "fraction", shares.MapHash)
	m.set("profile.samples", "count", float64(shares.Samples))

	if err := sess.layerMetrics(ctx, cfg, m, tr, traced); err != nil {
		return ws, err
	}
	if err := ladder(cfg, m, tr); err != nil {
		return ws, err
	}
	modelMetrics(m, sess.modelResults())

	var missing []string
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m.set(pl.name, pl.unit, 0)
			missing = append(missing, pl.name)
		}
	}
	res.report["not_applicable"] = missing
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return ws, err
	}
	return ws, nil
}

// modelScheme lists the configurations every workload simulates; the
// model-output metrics summarize each.
var modelSchemes = []string{"IQ_64_64", "IF_distr", "MB_distr"}

// modelMetrics reports the harmonic-mean IPC and issue-logic energy per
// committed instruction of each model scheme over the given results.
// They are model outputs: for a given seed they must repeat exactly, and
// a change flags a model change, never a speed-up.
func modelMetrics(m metrics, results []engine.Result) {
	for _, s := range modelSchemes {
		var ipcs []float64
		var energy float64
		var insts uint64
		for _, r := range results {
			if r.Config == s {
				ipcs = append(ipcs, r.IPC())
				energy += r.IQEnergy
				insts += r.Insts
			}
		}
		m.set("model.ipc_hmean."+s, "insts/cycle", hmean(ipcs))
		if insts > 0 {
			m.set("model.iq_energy_per_inst."+s, "pJ/inst", energy/float64(insts))
		}
	}
}

// peakMemMB is the process's resident-memory high-water mark.
func peakMemMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostFacts records the machine every result was measured on.
func hostFacts(workers int) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"go":         runtime.Version(),
		"cpu":        model,
	}
}

// printPins computes each workload's default-seed digest with
// engine.SimulateUncached — no trace cache, lockstep kernel, engine,
// store or server — and prints them as pinned.json content.
func printPins(stdout, stderr io.Writer) int {
	pins := map[string]string{}
	for _, wl := range workloads {
		jobs := pinnedJobs(wl.name)
		results := make([]engine.Result, len(jobs))
		for i, j := range jobs {
			r, err := engine.SimulateUncached(j)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			results[i] = r
		}
		pins[wl.name] = digest(results)
	}
	out, _ := json.MarshalIndent(pins, "", "  ")
	fmt.Fprintln(stdout, string(out))
	return 0
}

// pinnedJobs are the jobs, in digest order, whose default-seed digest
// pinned.json holds for each workload.
func pinnedJobs(name string) []engine.Job {
	switch name {
	case "fp-solo":
		return fpJobs(0)
	case "int-sweep":
		return intGrid(0).Jobs()
	default:
		return poolGrid(0, 0).Jobs()
	}
}
