package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"distiq/internal/cache"
	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/trace"
)

// outcome renders everything a run produces: the pipeline statistics,
// both schemes' energy events and the cache, BTB and predictor counters.
func outcome(p *Pipeline) string {
	out := fmt.Sprintf("%+v\n%+v\n%+v\n", p.Stats(), *p.Scheme(isa.IntDomain).Events(), *p.Scheme(isa.FPDomain).Events())
	h := p.Hierarchy()
	for _, c := range []*cache.Cache{h.L1I, h.L1D, h.L2} {
		out += fmt.Sprintf("%s %d/%d/%d ", c.Name(), c.Accesses, c.Misses, c.Writebacks)
	}
	return out + fmt.Sprintf("BTB %d/%d bpred %d/%d", p.btb.Hits, p.btb.Misses, p.pred.Mispredicts, p.pred.Lookups)
}

// TestReleasedArraysMatchFresh pins Release's contract: a pipeline built
// on the cache, BTB and instruction arrays of released pipelines, each
// run under another configuration or benchmark, produces byte for byte
// what a pipeline built on fresh arrays does. The runs cover every
// scheme code path (hotPathConfigs) on swim and gcc. Then, from empty
// pools, a ROB-64 slab proves too small for ROB 256, and a ROB-256 slab
// is reused at ROB 64 and back at ROB 256.
func TestReleasedArraysMatchFresh(t *testing.T) {
	type run struct {
		cfg   Config
		bench string
	}
	var runs []run
	for _, iq := range hotPathConfigs() {
		for _, bench := range []string{"swim", "gcc"} {
			runs = append(runs, run{DefaultConfig(iq), bench})
		}
	}
	robRuns := len(runs)
	rob64 := DefaultConfig(core.MBDistr())
	rob64.ROBSize = 64
	rob256 := DefaultConfig(core.MBDistr())
	runs = append(runs, run{rob64, "gcc"}, run{rob256, "gcc"}, run{rob64, "swim"}, run{rob256, "swim"})

	simulate := func(r run, release bool) (string, *isa.Inst) {
		p, err := New(r.cfg, trace.NewGenerator(trace.MustByName(r.bench)))
		if err != nil {
			t.Fatal(err)
		}
		p.Warmup(5_000)
		p.Run(20_000)
		out, slab := outcome(p), &p.insts[0]
		if release {
			p.Release()
		}
		return out, slab
	}
	want := make([]string, len(runs))
	for i, r := range runs {
		want[i], _ = simulate(r, false)
	}
	reused := 0
	var last *isa.Inst
	for i, r := range runs {
		if i == robRuns {
			// Two collections empty every sync.Pool.
			runtime.GC()
			runtime.GC()
		}
		got, slab := simulate(r, true)
		if got != want[i] {
			t.Errorf("%s/%s ROB %d on released arrays:\n%s\nwant\n%s", r.cfg.IQ.Name, r.bench, r.cfg.ROBSize, got, want[i])
		}
		if slab == last {
			reused++
		}
		last = slab
	}
	// sync.Pool may drop a released object (it does so at random under
	// -race), but not nearly every one.
	if reused == 0 {
		t.Fatal("no pipeline reused a released instruction slab")
	}
}
