package pipeline

import (
	"testing"

	"distiq/internal/core"
	"distiq/internal/trace"
)

// BenchmarkStepSteadyState measures the per-committed-instruction cost of
// the cycle loop after warmup, per issue-queue organization. The figure to
// watch is allocs/op: the steady-state hot path must stay allocation-free
// (TestStepSteadyStateAllocFree enforces it; perfbench records it as
// pipeline.allocs_per_inst).
func BenchmarkStepSteadyState(b *testing.B) {
	for _, cfg := range []core.Config{
		core.Baseline64(), core.AdaptiveBaseline64(), core.IFDistr(),
		core.LatFIFOCfg(8, 8, 8, 16), core.MBDistr(),
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			gen := trace.NewGenerator(trace.MustByName("swim"))
			p, err := New(DefaultConfig(cfg), gen)
			if err != nil {
				b.Fatal(err)
			}
			p.Warmup(20_000)
			b.ReportAllocs()
			b.ResetTimer()
			p.Run(uint64(b.N))
		})
	}
}

// TestStepSteadyStateAllocFree pins the tentpole invariant: once warm, the
// cycle loop performs zero heap allocations per committed instruction on
// every scheme code path (hotPathConfigs), fetching from a live
// generator, the path every engine job takes, and replaying a stream of
// the trace cache the benchmark harness still uses.
func TestStepSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const warmup, insts = 20_000, 20_000
	check := func(name string, cfg core.Config, f Fetcher) {
		t.Helper()
		p, err := New(DefaultConfig(cfg), f)
		if err != nil {
			t.Fatal(err)
		}
		p.Warmup(warmup)
		avg := testing.AllocsPerRun(1, func() { p.Run(insts) })
		// Tolerate stray runtime allocations (< one per 2000
		// instructions) but fail on any per-instruction or per-cycle
		// allocation.
		if avg > insts/2000 {
			t.Errorf("%s/%s: %.0f allocs per %d instructions, want ~0",
				cfg.Name, name, avg, insts)
		}
	}
	for _, cfg := range hotPathConfigs() {
		for _, bench := range []string{"swim", "gcc"} {
			check(bench, cfg, trace.NewGenerator(trace.MustByName(bench)))
		}
	}
	// Record each stream past all a pipeline reads (AllocsPerRun runs its
	// function once before measuring, and fetch runs ahead of commit), so
	// no reader grows the tape inside the measured window.
	traces := trace.NewCache(0)
	for _, bench := range []string{"gcc", "mcf", "swim", "galgel"} {
		s := traces.Stream(trace.MustByName(bench))
		s.EnsureRecorded(warmup + 2*insts + 4096)
		for _, cfg := range hotPathConfigs() {
			check(bench+" replay", cfg, s.NewReader())
		}
	}
}

// hotPathConfigs lists one configuration per scheme code path: CAM
// baseline, adaptive CAM, distributed FIFOs, distributed and
// unbounded-chain MixBUFF, and the LatFIFO and PreSched estimator paths.
func hotPathConfigs() []core.Config {
	return []core.Config{
		core.Baseline64(), core.AdaptiveBaseline64(), core.IFDistr(), core.MBDistr(),
		core.LatFIFOCfg(8, 8, 8, 16), core.PreSchedCfg(16, 16, 112, 16),
		core.MixBUFFCfg(8, 16, 8, 16, 0),
	}
}
