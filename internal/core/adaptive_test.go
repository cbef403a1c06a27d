package core

import (
	"testing"

	"distiq/internal/isa"
)

func newTestAdaptive(entries int) *adaptiveCAM {
	s, err := New(DomainConfig{Kind: KindAdaptiveCAM, Queues: 1, Entries: entries},
		defaultOpts(isa.IntDomain))
	if err != nil {
		panic(err)
	}
	return s.(*adaptiveCAM)
}

func TestAdaptiveStartsFullSize(t *testing.T) {
	a := newTestAdaptive(64)
	if a.Limit() != 64 || a.Capacity() != 64 {
		t.Fatalf("limit/capacity = %d/%d", a.Limit(), a.Capacity())
	}
	if a.Name() != "AdaptiveCAM" {
		t.Fatal("name")
	}
}

func TestAdaptiveShrinksWhenIdle(t *testing.T) {
	// A workload that never uses the queue deeply: one ready
	// instruction at a time. The youngest portion contributes nothing,
	// so the limit must shrink toward the minimum portion.
	a := newTestAdaptive(64)
	env := newFakeEnv()
	seq := uint64(0)
	for cycle := int64(1); cycle < 20_000; cycle++ {
		env.cycle = cycle
		a.Dispatch(env, mkInst(seq, isa.IntALU, isa.NoReg, isa.NoReg, isa.NoReg))
		seq++
		a.Issue(env, 8)
	}
	if a.Limit() > 16 {
		t.Fatalf("limit = %d, expected shrink toward 8", a.Limit())
	}
	if a.Shrinks == 0 {
		t.Fatal("no shrink decisions recorded")
	}
}

func TestAdaptiveGrowsUnderPressure(t *testing.T) {
	// Force the limit low, then present a deep backlog of unready
	// instructions: dispatch stalls at the limit must trigger growth.
	a := newTestAdaptive(64)
	a.limit = 8
	env := newFakeEnv()
	env.block(false, 5) // nothing ever becomes ready
	seq := uint64(0)
	for cycle := int64(1); cycle < 5_000; cycle++ {
		env.cycle = cycle
		a.Dispatch(env, mkInst(seq, isa.IntALU, 5, isa.NoReg, isa.NoReg))
		seq++
		a.Issue(env, 8)
	}
	if a.Limit() <= 8 {
		t.Fatalf("limit = %d, expected growth under dispatch pressure", a.Limit())
	}
	if a.Grows == 0 {
		t.Fatal("no grow decisions recorded")
	}
}

func TestAdaptiveDispatchRespectsLimit(t *testing.T) {
	a := newTestAdaptive(64)
	a.limit = 8
	env := newFakeEnv()
	env.block(false, 5)
	for i := uint64(0); i < 8; i++ {
		if !a.Dispatch(env, mkInst(i, isa.IntALU, 5, isa.NoReg, isa.NoReg)) {
			t.Fatalf("dispatch %d rejected below limit", i)
		}
	}
	if a.Dispatch(env, mkInst(99, isa.IntALU, 5, isa.NoReg, isa.NoReg)) {
		t.Fatal("dispatch above the effective limit succeeded")
	}
	if a.limitStalls == 0 {
		t.Fatal("limit stall not recorded")
	}
}

func TestAdaptiveIssueOrderPreserved(t *testing.T) {
	a := newTestAdaptive(32)
	env := newFakeEnv()
	for i := uint64(0); i < 4; i++ {
		a.Dispatch(env, mkInst(i, isa.IntALU, isa.NoReg, isa.NoReg, isa.NoReg))
	}
	env.cycle = 1
	a.Issue(env, 2)
	if len(env.issued) != 2 || env.issued[0].Seq != 0 || env.issued[1].Seq != 1 {
		t.Fatalf("issue order wrong: %v", env.issued)
	}
}

func TestAdaptiveConfigValidates(t *testing.T) {
	if err := AdaptiveBaseline64().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DomainConfig{Kind: KindAdaptiveCAM, Queues: 2, Entries: 8}
	if bad.Validate() == nil {
		t.Fatal("multi-queue adaptive CAM validated")
	}
	if KindAdaptiveCAM.String() != "AdaptiveCAM" {
		t.Fatal("kind name")
	}
}

func TestAdaptiveResizeDecisions(t *testing.T) {
	// A 16-entry queue resizes in 8-entry portions every 512 cycles: it
	// shrinks when fewer than 10 instructions issued from the youngest
	// portion, and grows after dispatch stalled at the limit.
	a := newTestAdaptive(16)
	env := newFakeEnv()
	seq := uint64(0)
	dispatch := func(n int, src int16) (accepted int) {
		for i := 0; i < n; i++ {
			if a.Dispatch(env, mkInst(seq, isa.IntALU, src, isa.NoReg, isa.NoReg)) {
				accepted++
			}
			seq++
		}
		return accepted
	}
	issueAt := func(cycle int64, want int) {
		t.Helper()
		env.cycle = cycle
		if n := a.Issue(env, 8); n != want {
			t.Fatalf("cycle %d: issued %d, want %d", cycle, n, want)
		}
	}
	check := func(step string, limit int, grows, shrinks uint64) {
		t.Helper()
		if a.Limit() != limit || a.Grows != grows || a.Shrinks != shrinks {
			t.Fatalf("%s: limit %d, grows %d, shrinks %d; want %d, %d, %d",
				step, a.Limit(), a.Grows, a.Shrinks, limit, grows, shrinks)
		}
	}

	// The first decision sees no issues from the youngest portion.
	issueAt(0, 0)
	check("first decision", 8, 0, 1)

	// A backlog of unready instructions stalls dispatch at the limit.
	env.block(false, 5)
	if got := dispatch(9, 5); got != 8 {
		t.Fatalf("dispatched %d below the limit, want 8", got)
	}
	issueAt(512, 0)
	check("after a limit stall", 16, 1, 1)

	// The unready backlog fills positions [0,8), so ready instructions
	// land in the youngest portion. A vetoed one stays and issues a
	// cycle later: ten issue from the portion in all, exactly the
	// threshold, so the size holds.
	vetoed := seq
	dispatch(8, isa.NoReg)
	env.veto[vetoed] = true
	issueAt(513, 7)
	delete(env.veto, vetoed)
	dispatch(2, isa.NoReg)
	issueAt(514, 3)
	issueAt(1024, 0)
	check("ten issues from the youngest portion", 16, 1, 1)

	// Nine issue this time; the vetoed entry sits in the portion through
	// both selections but never issues, so it does not count.
	vetoed = seq
	dispatch(8, isa.NoReg)
	env.veto[vetoed] = true
	issueAt(1025, 7)
	dispatch(2, isa.NoReg)
	issueAt(1026, 2)
	issueAt(1536, 0)
	check("nine issues from the youngest portion", 8, 1, 2)
}
