package core

import (
	"testing"

	"distiq/internal/isa"
)

func newTestCAM(entries int) *camQueue {
	s, err := New(DomainConfig{Kind: KindCAM, Queues: 1, Entries: entries},
		defaultOpts(isa.IntDomain))
	if err != nil {
		panic(err)
	}
	return s.(*camQueue)
}

func TestCAMOldestFirstIssue(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	for i := uint64(0); i < 4; i++ {
		if !q.Dispatch(env, mkInst(i, isa.IntALU, isa.NoReg, isa.NoReg, int16(i))) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	n := q.Issue(env, 2)
	if n != 2 || len(env.issued) != 2 {
		t.Fatalf("issued %d, want 2", n)
	}
	if env.issued[0].Seq != 0 || env.issued[1].Seq != 1 {
		t.Fatalf("issue order %d,%d not oldest-first", env.issued[0].Seq, env.issued[1].Seq)
	}
	if q.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", q.Occupancy())
	}
}

func TestCAMSkipsUnready(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	blocked := mkInst(0, isa.IntALU, 5, isa.NoReg, 6)
	readyIn := mkInst(1, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	env.block(false, 5)
	q.Dispatch(env, blocked)
	q.Dispatch(env, readyIn)
	if n := q.Issue(env, 8); n != 1 {
		t.Fatalf("issued %d, want 1", n)
	}
	if env.issued[0].Seq != 1 {
		t.Fatal("issued the blocked instruction")
	}
	// The producer's broadcast next cycle wakes the older instruction,
	// which then issues.
	env.cycle++
	env.wake(q, false, 5)
	env.issued = nil
	if n := q.Issue(env, 8); n != 1 || env.issued[0].Seq != 0 {
		t.Fatal("unblocked instruction did not issue")
	}
}

func TestCAMCapacityStalls(t *testing.T) {
	q := newTestCAM(2)
	env := newFakeEnv()
	q.Dispatch(env, mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 1))
	q.Dispatch(env, mkInst(1, isa.IntALU, isa.NoReg, isa.NoReg, 2))
	if q.Dispatch(env, mkInst(2, isa.IntALU, isa.NoReg, isa.NoReg, 3)) {
		t.Fatal("dispatch into full CAM queue succeeded")
	}
	if q.Capacity() != 2 {
		t.Fatalf("capacity = %d", q.Capacity())
	}
}

func TestCAMWakeupCountsUnreadyMatchingDomain(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	// Entry with one unready int operand and one unready FP operand.
	in := mkInst(0, isa.IntALU, 3, 4, 5)
	in.Src2FP = true
	env.block(false, 3)
	env.block(true, 4)
	q.Dispatch(env, in)

	q.OnComplete(env, false, 9) // int result: compares src1 only
	if got := q.Events().WakeupCAMCells; got != 1 {
		t.Fatalf("int broadcast cells = %d, want 1", got)
	}
	q.OnComplete(env, true, 9) // fp result: compares src2 only
	if got := q.Events().WakeupCAMCells; got != 2 {
		t.Fatalf("fp broadcast cells = %d, want 2", got)
	}
	if got := q.Events().WakeupBroadcasts; got != 2 {
		t.Fatalf("broadcasts = %d, want 2", got)
	}
	// Ready operands cost nothing (Folegnani-González): the producers'
	// broadcasts on a later cycle wake both operands.
	env.cycle++
	env.wake(q, false, 3)
	env.wake(q, true, 4)
	if q.Events().WakeupCAMCells != 2 {
		t.Fatal("ready operands consumed wakeup energy")
	}
}

func TestCAMEmptyQueueSelectGated(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	q.Issue(env, 8)
	if q.ev.SelectOps != 0 {
		t.Fatal("selection consumed energy on empty queue")
	}
	q.OnComplete(env, false, 1)
	if q.ev.WakeupBroadcasts != 0 {
		t.Fatal("wakeup consumed energy on empty queue")
	}
}

func TestCAMBudgetRespected(t *testing.T) {
	q := newTestCAM(16)
	env := newFakeEnv()
	for i := uint64(0); i < 10; i++ {
		q.Dispatch(env, mkInst(i, isa.IntALU, isa.NoReg, isa.NoReg, isa.NoReg))
	}
	if n := q.Issue(env, 8); n != 8 {
		t.Fatalf("issued %d, want 8 (width)", n)
	}
	if q.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", q.Occupancy())
	}
}

func TestCAMGeometryBanked(t *testing.T) {
	g := newTestCAM(64).Geometry()
	if g.Banks != 8 {
		t.Fatalf("64-entry queue banks = %d, want 8", g.Banks)
	}
	if newTestCAM(16).Geometry().Banks != 1 {
		t.Fatal("small queue should be unbanked")
	}
}

func TestCAMTryIssueVetoKeepsEntry(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	in := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 1)
	q.Dispatch(env, in)
	env.veto[0] = true
	if n := q.Issue(env, 8); n != 0 {
		t.Fatalf("issued %d with veto", n)
	}
	if q.Occupancy() != 1 {
		t.Fatal("vetoed instruction was removed")
	}
	delete(env.veto, 0)
	if n := q.Issue(env, 8); n != 1 {
		t.Fatal("instruction lost after veto")
	}
}

func TestCAMWakeupCountedOncePerCycle(t *testing.T) {
	// Every broadcast of a cycle drives the unready cells left after all
	// of the cycle's wakeups; a Dispatch or an Issue changes the entries
	// and so the count.
	q := newTestCAM(8)
	env := newFakeEnv()
	env.cycle = 1
	env.block(false, 3)
	q.Dispatch(env, mkInst(0, isa.IntALU, 3, 3, 5))
	charge := func(tags ...int16) uint64 {
		before := q.Events().WakeupCAMCells
		for _, tag := range tags {
			q.OnComplete(env, false, tag)
		}
		return q.Events().WakeupCAMCells - before
	}
	if a, b := charge(9), charge(9); a != 2 || b != 2 {
		t.Fatalf("two broadcasts in one cycle charged %d and %d cells, want 2 and 2", a, b)
	}
	// A store issues on its address alone, taking its unready data
	// operand out of the queue.
	q.Dispatch(env, mkInst(1, isa.Store, isa.NoReg, 3, isa.NoReg))
	if got := charge(9); got != 3 {
		t.Fatalf("broadcast after a dispatch charged %d cells, want 3", got)
	}
	if n := q.Issue(env, 8); n != 1 {
		t.Fatalf("issued %d, want the store alone", n)
	}
	if got := charge(9); got != 2 {
		t.Fatalf("broadcast after an issue charged %d cells, want 2", got)
	}
	env.cycle++
	env.unblock(false, 3)
	if got := charge(3); got != 0 {
		t.Fatalf("broadcast after readiness changed charged %d cells, want 0", got)
	}
	// A broadcast ahead of a wakeup in the same cycle is charged what
	// the wakeup leaves: one operand, still waiting for tag 7.
	env.block(false, 4)
	env.block(false, 7)
	q.Dispatch(env, mkInst(2, isa.IntALU, 4, 7, 6))
	env.cycle++
	env.unblock(false, 4)
	if got := charge(9, 4); got != 2 {
		t.Fatalf("two broadcasts around a wakeup charged %d cells, want 1 each", got)
	}
}
