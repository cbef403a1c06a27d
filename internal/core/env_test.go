package core

import (
	"distiq/internal/isa"
)

// fakeEnv is a controllable Env for scheme unit tests. Readiness is keyed
// by (fp, preg); TryIssue succeeds unless the instruction is vetoed, and
// records issue order.
type fakeEnv struct {
	cycle    int64
	notReady map[[2]int32]bool // {domIdx, preg} -> blocked
	veto     map[uint64]bool   // seq -> TryIssue returns false
	issued   []*isa.Inst
	budget   int // optional cap enforced inside TryIssue (<=0: unlimited)
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		notReady: map[[2]int32]bool{},
		veto:     map[uint64]bool{},
		budget:   -1,
	}
}

func (e *fakeEnv) Cycle() int64 { return e.cycle }

func (e *fakeEnv) key(fp bool, preg int16) [2]int32 {
	d := int32(0)
	if fp {
		d = 1
	}
	return [2]int32{d, int32(preg)}
}

func (e *fakeEnv) block(fp bool, preg int16)   { e.notReady[e.key(fp, preg)] = true }
func (e *fakeEnv) unblock(fp bool, preg int16) { delete(e.notReady, e.key(fp, preg)) }

// wake makes preg ready and broadcasts its tag to s, as writeback does
// when the producer completes.
func (e *fakeEnv) wake(s Scheme, fp bool, preg int16) {
	e.unblock(fp, preg)
	s.OnComplete(e, fp, preg)
}

func (e *fakeEnv) OperandReady(fp bool, preg int16) bool {
	return !e.notReady[e.key(fp, preg)]
}

func (e *fakeEnv) TryIssue(in *isa.Inst) bool {
	if e.veto[in.Seq] {
		return false
	}
	if e.budget == 0 {
		return false
	}
	if e.budget > 0 {
		e.budget--
	}
	e.issued = append(e.issued, in)
	in.Issued = true
	return true
}

func (e *fakeEnv) Older(a, b uint32) bool {
	if a == b {
		return false
	}
	return (b-a)&511 < 256
}

// mkInst builds a minimal instruction for scheme tests. Sources and dest
// use the same register number for logical and physical (tests do not
// rename).
func mkInst(seq uint64, class isa.Class, src1, src2, dest int16) *isa.Inst {
	in := &isa.Inst{
		Seq: seq, Class: class,
		Src1: src1, Src2: src2, Dest: dest,
	}
	fp := class.Domain() == isa.FPDomain
	in.Src1FP, in.Src2FP, in.DestFP = fp, fp, fp
	in.ResetMicro()
	in.PSrc1, in.PSrc2, in.PDest = src1, src2, dest
	in.AgeID = uint32(seq) & 511
	return in
}

func defaultOpts(d isa.Domain) Options {
	return Options{
		Domain:    d,
		Latencies: isa.DefaultLatencies(),
		MemHitLat: 2,
		FUCounts:  [isa.NumFUKinds]int{8, 4, 4, 4},
	}
}
