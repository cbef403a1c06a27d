package core

import (
	"testing"

	"distiq/internal/isa"
)

func newTestPreSched(l2, l1 int) (*preSched, *Estimator) {
	opt := defaultOpts(isa.FPDomain)
	opt.Estimator = NewEstimator(opt.Latencies, opt.MemHitLat)
	s, err := New(DomainConfig{Kind: KindPreSched, Queues: 1, Entries: l2, Chains: l1}, opt)
	if err != nil {
		panic(err)
	}
	return s.(*preSched), opt.Estimator
}

func TestPreSchedRequiresEstimator(t *testing.T) {
	if _, err := New(DomainConfig{Kind: KindPreSched, Queues: 1, Entries: 64},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Fatal("PreSched without estimator accepted")
	}
}

func TestPreSchedBufferOrdering(t *testing.T) {
	// Instructions with earlier estimated issue times must be promoted
	// first regardless of dispatch order.
	p, est := newTestPreSched(32, 4)
	env := newFakeEnv()
	// A long-latency chain: producer then consumer (est far out), then
	// an independent instruction (est now).
	prod := mkInst(0, isa.FPDiv, isa.NoReg, isa.NoReg, 1) // ready at +12
	cons := mkInst(1, isa.FPAdd, 1, isa.NoReg, 2)         // est ~13
	indep := mkInst(2, isa.FPAdd, isa.NoReg, isa.NoReg, 3)
	for _, in := range []*isa.Inst{prod, cons, indep} {
		est.OnDispatch(in, 0)
		if !p.Dispatch(env, in) {
			t.Fatalf("dispatch %d stalled", in.Seq)
		}
	}
	if p.level2[0].Seq == 1 {
		t.Fatal("far-future consumer sorted before due instructions")
	}
	env.cycle = 1
	p.Issue(env, 8)
	// prod and indep (est ~1) promoted and issued; cons stays in L2.
	if len(env.issued) != 2 {
		t.Fatalf("issued %d, want 2", len(env.issued))
	}
	for _, in := range env.issued {
		if in.Seq == 1 {
			t.Fatal("consumer issued before its estimated time")
		}
	}
	if p.Promotions != 2 {
		t.Fatalf("promotions = %d, want 2", p.Promotions)
	}
}

func TestPreSchedPromotionBoundedByL1(t *testing.T) {
	p, est := newTestPreSched(32, 2)
	env := newFakeEnv()
	env.block(true, 9) // all wait for one operand
	for i := uint64(0); i < 6; i++ {
		in := mkInst(i, isa.FPAdd, 9, isa.NoReg, int16(10+i))
		est.OnDispatch(in, 0)
		p.Dispatch(env, in)
	}
	env.cycle = 1
	p.Issue(env, 8)
	if p.level1.Occupancy() != 2 {
		t.Fatalf("L1 holds %d, want its capacity 2", p.level1.Occupancy())
	}
	if len(p.level2) != 4 {
		t.Fatalf("L2 holds %d, want 4", len(p.level2))
	}
	// Its producer's broadcast wakes the first level; the window
	// drains two per cycle at most (L1 size).
	env.cycle = 2
	env.wake(p, true, 9)
	total := 0
	for c := int64(2); c < 12 && total < 6; c++ {
		env.cycle = c
		total += p.Issue(env, 8)
	}
	if total != 6 {
		t.Fatalf("drained %d of 6", total)
	}
	if p.Occupancy() != 0 {
		t.Fatal("occupancy not zero after drain")
	}
}

func TestPreSchedDispatchStallsWhenBufferFull(t *testing.T) {
	p, est := newTestPreSched(4, 2)
	env := newFakeEnv()
	for i := uint64(0); i < 4; i++ {
		in := mkInst(i, isa.FPAdd, isa.NoReg, isa.NoReg, int16(i))
		est.OnDispatch(in, 0)
		if !p.Dispatch(env, in) {
			t.Fatalf("dispatch %d stalled early", i)
		}
	}
	in := mkInst(9, isa.FPAdd, isa.NoReg, isa.NoReg, 9)
	est.OnDispatch(in, 0)
	if p.Dispatch(env, in) {
		t.Fatal("dispatch into full buffer succeeded")
	}
}

func TestPreSchedGeometryTwoLevel(t *testing.T) {
	p, _ := newTestPreSched(112, 16)
	g := p.Geometry()
	if g.Entries != 16 {
		t.Fatalf("first level = %d entries, want 16", g.Entries)
	}
	if g.SecondLevel != 112 {
		t.Fatalf("second level = %d, want 112", g.SecondLevel)
	}
	if p.Capacity() != 128 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
}

func TestPreSchedConfig(t *testing.T) {
	cfg := PreSchedCfg(16, 16, 112, 16)
	if cfg.Name != "PreSched_16x16_112+16" {
		t.Fatalf("name %q", cfg.Name)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if PreSchedCfg(8, 8, 64, 0).FP.Chains != 16 {
		t.Fatal("default first-level size")
	}
	if KindPreSched.String() != "PreSched" {
		t.Fatal("kind name")
	}
}

func TestPreSchedEventsIncludeBothLevels(t *testing.T) {
	p, est := newTestPreSched(32, 4)
	env := newFakeEnv()
	in := mkInst(0, isa.FPAdd, isa.NoReg, isa.NoReg, 1)
	est.OnDispatch(in, 0)
	p.Dispatch(env, in)
	env.cycle = 1
	p.Issue(env, 8)
	ev := p.Events()
	if ev.FIFOWrites != 1 || ev.FIFOReads != 1 {
		t.Fatalf("buffer traffic not counted: %+v", ev)
	}
	if ev.IQWrites != 1 || ev.IQReads != 1 {
		t.Fatalf("first-level CAM traffic not merged: %+v", ev)
	}
}
