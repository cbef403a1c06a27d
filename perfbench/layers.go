package main

import (
	"bufio"
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/isa"
	"distiq/internal/obs"
	"distiq/internal/pipeline"
	"distiq/internal/trace"
)

// perLayer is every metric a traced run prints, with its unit and the
// direction an optimisation moves it; BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches keeps them in step). A metric a
// workload does not exercise is printed as 0 and named under
// "not_applicable" in the report line.
var perLayer = func() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) { out = append(out, layerMetric{name, unit, better}) }
	add("trace.gen_ns_per_inst", "ns/inst", "lower")
	add("trace.replay_ns_per_inst", "ns/inst", "lower")
	add("trace.streams_generated", "count", "lower")
	for _, s := range []string{"IQ_64_64", "IF_distr", "MB_distr"} {
		for _, d := range []string{"fp", "int"} {
			add("pipeline.ns_per_inst."+s+"."+d, "ns/inst", "lower")
		}
	}
	add("pipeline.mb_over_if.fp", "ratio", "lower")
	add("pipeline.allocs_per_inst", "allocs/inst", "lower")
	for _, name := range []string{"core.cam_oncomplete_share", "core.mixbuff_issue_share", "core.fifo_issue_share", "core.map_hash_share"} {
		add(name, "fraction", "lower")
	}
	add("engine.simulate_ms_p50", "ms", "lower")
	add("engine.simulate_ms_mean", "ms", "lower")
	add("engine.overhead_frac", "fraction", "lower")
	add("engine.worker_utilization", "fraction", "higher")
	add("engine.batch_groups", "count", "higher")
	add("engine.batched_jobs", "count", "higher")
	add("engine.nobatch_ratio", "ratio", "higher")
	add("engine.nobatch_ratio_iqr", "ratio", "lower")
	add("store.get_us_p50", "us", "lower")
	add("store.get_us_p99", "us", "lower")
	add("store.put_us_p50", "us", "lower")
	add("store.put_us_p99", "us", "lower")
	add("store.hit_ratio", "fraction", "higher")
	add("scenario.expand_us_p50", "us", "lower")
	add("serve.submit_ms_p50", "ms", "lower")
	add("serve.stream_ms_p50", "ms", "lower")
	for _, l := range profileLayers {
		add(l+".cpu_share", "fraction", "lower")
	}
	add("profile.samples", "count", "higher")
	add("tracing.sim_insts_per_s_untraced", "insts/s", "higher")
	add("tracing.sim_insts_per_s_traced", "insts/s", "higher")
	add("tracing.overhead_frac", "fraction", "lower")
	for _, s := range modelSchemes {
		add("model.ipc_hmean."+s, "insts/cycle", "higher")
		add("model.iq_energy_per_inst."+s, "pJ/inst", "lower")
	}
	return out
}()

type layerMetric struct{ name, unit, better string }

// hist is a snapshot of the engine's simulate-duration histogram:
// cumulative bucket counts by upper bound, sum and count.
type hist struct {
	les   []float64
	cum   []float64
	sum   float64
	count float64
}

const simHistName = "distiq_engine_simulate_duration_seconds"

// exposition reads a registry's Prometheus text as series -> value.
func exposition(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if reg.WritePrometheus(&buf) != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		series, val, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil && !strings.HasPrefix(series, "#") {
			out[series] = v
		}
	}
	return out
}

// simHist reads the simulate histogram off a registry.
func simHist(reg *obs.Registry) hist {
	series := exposition(reg)
	h := hist{sum: series[simHistName+"_sum"], count: series[simHistName+"_count"]}
	for name, v := range series {
		le, ok := strings.CutPrefix(name, simHistName+`_bucket{le="`)
		if b, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64); ok && err == nil {
			h.les = append(h.les, b) // +Inf fails to parse: the count covers it
			h.cum = append(h.cum, v)
		}
	}
	sort.Sort(h)
	return h
}

func (h hist) Len() int           { return len(h.les) }
func (h hist) Less(i, j int) bool { return h.les[i] < h.les[j] }
func (h hist) Swap(i, j int) {
	h.les[i], h.les[j] = h.les[j], h.les[i]
	h.cum[i], h.cum[j] = h.cum[j], h.cum[i]
}

// add merges o into h (same buckets, or h empty).
func (h *hist) add(o hist) {
	if h.les == nil {
		h.les = o.les
		h.cum = make([]float64, len(o.cum))
	}
	for i := range o.cum {
		h.cum[i] += o.cum[i]
	}
	h.sum += o.sum
	h.count += o.count
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation.
func (h hist) quantile(q float64) float64 {
	target := q * h.count
	lo, prev := 0.0, 0.0
	for i, le := range h.les {
		if h.cum[i] >= target && h.cum[i] > prev {
			return lo + (le-lo)*(target-prev)/(h.cum[i]-prev)
		}
		lo, prev = le, h.cum[i]
	}
	return lo
}

func simHists(regs []*obs.Registry) hist {
	var h hist
	for _, r := range regs {
		h.add(simHist(r))
	}
	return h
}

// engineMetrics reports the engine's simulate timings from its Obs
// histogram: median (bucket-interpolated) and mean simulate time, and
// worker utilization — summed simulate time over wall time times
// workers. A lockstep group counts as one simulate.
func engineMetrics(m metrics, h hist, workers int, wall time.Duration) {
	if h.count == 0 {
		return
	}
	m.set("engine.simulate_ms_p50", "ms", h.quantile(0.5)*1e3)
	m.set("engine.simulate_ms_mean", "ms", h.sum/h.count*1e3)
	m.set("engine.worker_utilization", "fraction", h.sum/(wall.Seconds()*float64(workers)))
}

// Layer-isolation cases: each is repeated ladderReps times on inputs
// derived from the workload seed and reported as the median.
const ladderReps = 5

var ladderOpt = engine.Options{Warmup: 10_000, Instructions: 100_000}

// ladderModel returns a benchmark model with its stream perturbed by the
// seed (seed 0 = canonical).
func ladderModel(bench string, seed uint64) trace.Model {
	m, err := trace.ByName(bench)
	if err != nil {
		panic(err) // fixed benchmark names
	}
	m.Seed ^= derive(seed, 1<<30)
	return m
}

// ladder runs the layer-isolation cases and adds their metrics.
func ladder(cfg *runConfig, m metrics, tr *tracer) error {
	if err := pipelineCases(cfg, m); err != nil {
		return err
	}
	traceCases(cfg, m, tr)
	return engineOverhead(m)
}

// pipelineCases time pipeline.Run after Warmup over a recorded trace, per
// organization on one FP (swim) and one integer (gcc) code, as
// nanoseconds per committed instruction, and count heap allocations in
// the measured loop.
func pipelineCases(cfg *runConfig, m metrics) error {
	total := int(ladderOpt.Warmup+ladderOpt.Instructions) + 4*8192
	var maxAllocs float64
	ns := map[string][]float64{}
	for _, dom := range []struct{ name, bench string }{{"fp", "swim"}, {"int", "gcc"}} {
		model := ladderModel(dom.bench, cfg.seed)
		traces := trace.NewCache(total)
		traces.Stream(model).EnsureRecorded(total)
		for rep := 0; rep < ladderReps; rep++ {
			for _, c := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
				p, err := pipeline.New(pipeline.DefaultConfig(c), traces.Reader(model))
				if err != nil {
					return err
				}
				p.Warmup(ladderOpt.Warmup)
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				start := time.Now()
				p.Run(ladderOpt.Instructions)
				elapsed := time.Since(start)
				runtime.ReadMemStats(&m1)
				n := float64(p.Stats().Committed)
				key := c.Name + "." + dom.name
				ns[key] = append(ns[key], float64(elapsed.Nanoseconds())/n)
				if a := float64(m1.Mallocs-m0.Mallocs) / n; a > maxAllocs {
					maxAllocs = a
				}
			}
		}
	}
	for key, xs := range ns {
		m.set("pipeline.ns_per_inst."+key, "ns/inst", median(xs))
	}
	var ratios []float64
	for i := range ns["MB_distr.fp"] {
		ratios = append(ratios, ns["MB_distr.fp"][i]/ns["IF_distr.fp"][i])
	}
	m.set("pipeline.mb_over_if.fp", "ratio", median(ratios))
	m.set("pipeline.allocs_per_inst", "allocs/inst", maxAllocs)
	return nil
}

// traceCases time recording a fresh stream (Stream.EnsureRecorded) and
// replaying the recorded one (StreamReader.Next), per instruction.
func traceCases(cfg *runConfig, m metrics, tr *tracer) {
	const n = 200_000
	model := ladderModel("swim", cfg.seed)
	var gen, replay []float64
	for rep := 0; rep < ladderReps; rep++ {
		s := trace.NewCache(n).Stream(model)
		t0 := time.Now()
		s.EnsureRecorded(n)
		t1 := time.Now()
		tr.record("trace.EnsureRecorded", 0, t0, t1)
		gen = append(gen, float64(t1.Sub(t0).Nanoseconds())/n)
		r := s.NewReader()
		var in isa.Inst
		t0 = time.Now()
		for i := 0; i < n; i++ {
			r.Next(&in)
		}
		replay = append(replay, float64(time.Since(t0).Nanoseconds())/n)
	}
	m.set("trace.gen_ns_per_inst", "ns/inst", median(gen))
	m.set("trace.replay_ns_per_inst", "ns/inst", median(replay))
}

// engineOverhead compares engine.Simulate with a bare pipeline.New +
// Warmup + Run of the same job over a recorded trace: the share of
// Simulate spent beyond the cycle loop (trace lookup, result assembly,
// power model). It runs the canonical swim stream, the one job whose
// model a bare pipeline can rebuild without the engine's seed mixing.
func engineOverhead(m metrics) error {
	job := engine.Job{Bench: "swim", Config: core.MBDistr(), Opt: ladderOpt}
	if _, err := engine.Simulate(job); err != nil { // materializes the shared trace
		return err
	}
	model, err := trace.ByName(job.Bench)
	if err != nil {
		return err
	}
	total := int(ladderOpt.Warmup+ladderOpt.Instructions) + 4*8192
	traces := trace.NewCache(total)
	traces.Stream(model).EnsureRecorded(total)
	var ratios []float64
	for rep := 0; rep < ladderReps; rep++ {
		t0 := time.Now()
		if _, err := engine.Simulate(job); err != nil {
			return err
		}
		sim := time.Since(t0)
		t0 = time.Now()
		p, err := pipeline.New(job.PipelineConfig(), traces.Reader(model))
		if err != nil {
			return err
		}
		p.Warmup(job.Opt.Warmup)
		p.Run(job.Opt.Instructions)
		bare := time.Since(t0)
		ratios = append(ratios, sim.Seconds()/bare.Seconds()-1)
	}
	m.set("engine.overhead_frac", "fraction", median(ratios))
	return nil
}
