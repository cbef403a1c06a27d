package core

import (
	"testing"

	"distiq/internal/isa"
	"distiq/internal/rng"
)

// stressEnv is an Env that keeps the pipeline's wakeup contract without
// the pipeline. Destinations are renamed onto physical tags, so producers
// in flight hold distinct tags. A tag is unready from its producer's
// dispatch until the producer completes, a fixed latency after it issues,
// and writeback broadcasts it in that cycle, before Issue. Completed
// instructions retire in order and free the previous mapping of their
// destination, as commit does.
type stressEnv struct {
	cycle    int64
	readyAt  [2][isa.NumPhysicalRegs]int64 // cycle each tag turns usable
	mapTable [2][isa.NumLogicalRegs]int16
	free     [2][]int16
	window   []*isa.Inst           // dispatched and not retired, in order
	complete map[int64][]*isa.Inst // completion cycle -> issued instructions
	issued   []*isa.Inst
	budget   int
}

func newStressEnv() *stressEnv {
	e := &stressEnv{complete: map[int64][]*isa.Inst{}, budget: 1 << 30}
	for f := range e.mapTable {
		for r := range e.mapTable[f] {
			e.mapTable[f][r] = int16(r)
		}
		for p := isa.NumPhysicalRegs - 1; p >= isa.NumLogicalRegs; p-- {
			e.free[f] = append(e.free[f], int16(p))
		}
	}
	return e
}

func (e *stressEnv) Cycle() int64 { return e.cycle }

func (e *stressEnv) OperandReady(fp bool, preg int16) bool {
	return e.readyAt[domIdx(fp)][preg] <= e.cycle
}

func (e *stressEnv) TryIssue(in *isa.Inst) bool {
	if e.budget <= 0 {
		return false
	}
	if !OperandsReady(e, in) {
		return false
	}
	e.budget--
	at := e.cycle + int64(latencyOf(in, isa.DefaultLatencies(), 2))
	if in.PDest != isa.NoReg {
		e.readyAt[domIdx(in.DestFP)][in.PDest] = at
	}
	e.complete[at] = append(e.complete[at], in)
	in.Issued = true
	e.issued = append(e.issued, in)
	return true
}

func (e *stressEnv) Older(a, b uint32) bool {
	if a == b {
		return false
	}
	return (b-a)&511 < 256
}

// rename maps in's sources and gives its destination a free tag, which
// stays unready until in completes. It reports false, changing nothing,
// when the destination's register file has no free tag.
func (e *stressEnv) rename(in *isa.Inst) bool {
	if in.Dest != isa.NoReg && len(e.free[domIdx(in.DestFP)]) == 0 {
		return false
	}
	if in.Src1 != isa.NoReg {
		in.PSrc1 = e.mapTable[domIdx(in.Src1FP)][in.Src1]
	}
	if in.Src2 != isa.NoReg {
		in.PSrc2 = e.mapTable[domIdx(in.Src2FP)][in.Src2]
	}
	if in.Dest != isa.NoReg {
		f := domIdx(in.DestFP)
		in.PDest = e.free[f][len(e.free[f])-1]
		e.free[f] = e.free[f][:len(e.free[f])-1]
		in.POld = e.mapTable[f][in.Dest]
		e.mapTable[f][in.Dest] = in.PDest
		e.readyAt[f][in.PDest] = 1 << 62
	}
	return true
}

// undo reverses rename after a dispatch stall.
func (e *stressEnv) undo(in *isa.Inst) {
	if in.Dest != isa.NoReg {
		f := domIdx(in.DestFP)
		e.mapTable[f][in.Dest] = in.POld
		e.free[f] = append(e.free[f], in.PDest)
		e.readyAt[f][in.PDest] = 0
	}
}

// writeback completes this cycle's instructions, broadcasting the tags of
// their results to s, and retires the completed ones at the head of the
// window. It returns the number of broadcasts per register file.
func (e *stressEnv) writeback(s Scheme) (broadcasts [2]uint64) {
	for _, in := range e.complete[e.cycle] {
		in.Completed = true
		if in.PDest != isa.NoReg {
			s.OnComplete(e, in.DestFP, in.PDest)
			broadcasts[domIdx(in.DestFP)]++
		}
	}
	delete(e.complete, e.cycle)
	for len(e.window) > 0 && e.window[0].Completed {
		if in := e.window[0]; in.POld != isa.NoReg {
			f := domIdx(in.DestFP)
			e.free[f] = append(e.free[f], in.POld)
		}
		e.window = e.window[1:]
	}
	return broadcasts
}

// stressInst draws an instruction: mostly FP arithmetic, plus loads and
// stores, whose integer address and FP or integer data bring both
// register files' tags into the scheme. Half the time the first source
// is the previous destination, when their files match.
func stressInst(r *rng.Source, seq uint64, last *isa.Inst) *isa.Inst {
	reg := func() int16 { return int16(r.Intn(isa.NumLogicalRegs)) }
	in := &isa.Inst{Seq: seq, Src1: reg(), Src2: isa.NoReg, Dest: isa.NoReg}
	in.ResetMicro()
	in.AgeID = uint32(seq) & 511
	switch k := r.Intn(8); {
	case k < 5:
		in.Class = isa.FPAdd
		if k == 4 {
			in.Class = isa.FPMult
		}
		in.Src1FP, in.Src2FP, in.DestFP = true, true, true
		if r.Bool(0.5) {
			in.Src2 = reg()
		}
		in.Dest = reg()
	case k < 7:
		in.Class = isa.Load
		in.DestFP = r.Bool(0.5)
		in.Dest = reg()
	default:
		in.Class = isa.Store
		in.Src2, in.Src2FP = reg(), r.Bool(0.5)
	}
	if last != nil && last.Dest != isa.NoReg && last.DestFP == in.Src1FP && r.Bool(0.5) {
		in.Src1 = last.Dest
	}
	return in
}

// camOf returns the CAM queue that s tracks readiness in, or nil.
func camOf(s Scheme) *camQueue {
	switch s := s.(type) {
	case *camQueue:
		return s
	case *adaptiveCAM:
		return s.cam
	case *preSched:
		return s.level1
	}
	return nil
}

// checkCAM holds q's broadcast-tracked state against polling env: every
// entry's cached readiness equals OperandsReady, and the per-file unready
// counts and the ready count equal a recount. It returns the recount of
// unready operands per register file.
func checkCAM(t *testing.T, env Env, q *camQueue) (unready [2]uint64) {
	t.Helper()
	ready := 0
	for _, s := range q.order {
		e := &q.slots[s]
		in := e.in
		if cached := e.wait&e.mask == 0; cached != OperandsReady(env, in) {
			t.Fatalf("cycle %d: seq %d cached readiness %v, OperandsReady %v",
				env.Cycle(), in.Seq, cached, !cached)
		}
		if e.wait&e.mask == 0 {
			ready++
		}
		if in.PSrc1 != isa.NoReg && !env.OperandReady(in.Src1FP, in.PSrc1) {
			unready[domIdx(in.Src1FP)]++
		}
		if in.PSrc2 != isa.NoReg && !env.OperandReady(in.Src2FP, in.PSrc2) {
			unready[domIdx(in.Src2FP)]++
		}
	}
	if unready != q.unready || ready != q.ready {
		t.Fatalf("cycle %d: tracked %d unready operands and %d ready entries, recount %d and %d",
			env.Cycle(), q.unready, q.ready, unready, ready)
	}
	return unready
}

// checkHeads holds the broadcast-tracked state of the FIFO organizations
// and MixBUFF against polling env: every watched head's cached readiness
// equals OperandsReady, the FIFO heads' source count equals a recount,
// and each non-empty MixBUFF queue's cached selection, while Issue would
// use it, equals a fresh code‖age scan of every chain.
func checkHeads(t *testing.T, env Env, s Scheme) {
	t.Helper()
	check := func(h *headWatch, slot int, head *isa.Inst) {
		if cached, ready := h.ready.has(slot), head != nil && OperandsReady(env, head); cached != ready {
			t.Fatalf("cycle %d: slot %d cached readiness %v, OperandsReady %v (empty slot: %v)",
				env.Cycle(), slot, cached, ready, head == nil)
		}
	}
	var f *fifoQueues
	switch s := s.(type) {
	case *issueFIFO:
		f = &s.fifoQueues
	case *latFIFO:
		f = &s.fifoQueues
	case *mixBUFF:
		checkMixBUFF(t, env, s, check)
		return
	default:
		return
	}
	var srcs uint64
	for q := range f.rings {
		var head *isa.Inst
		if r := &f.rings[q]; r.n > 0 {
			head = r.buf[r.first]
			srcs += uint64(head.NumSources())
		}
		check(&f.heads, q, head)
	}
	if srcs != f.srcs {
		t.Fatalf("cycle %d: tracked %d head sources, recount %d", env.Cycle(), f.srcs, srcs)
	}
}

// checkMixBUFF is checkHeads for MixBUFF: every chain head's readiness,
// the busy-chain bits and the cached selections.
func checkMixBUFF(t *testing.T, env Env, m *mixBUFF, check func(*headWatch, int, *isa.Inst)) {
	t.Helper()
	now := env.Cycle()
	for qi := range m.queues {
		q := &m.queues[qi]
		sel, bestCode := -1, codeNotReady
		for c := range q.chains {
			ch := &q.chains[c]
			var head *isa.Inst
			if ch.head >= 0 {
				head = q.entries[ch.head]
			}
			if q.busy.has(c) != (head != nil) {
				t.Fatalf("cycle %d: queue %d chain %d busy bit wrong", now, qi, c)
			}
			check(&m.heads, qi*m.chainN+c, head)
			if head == nil {
				continue
			}
			code := m.code(ch, now)
			if code == codeNotReady {
				continue
			}
			if sel < 0 || code < bestCode ||
				(code == bestCode && env.Older(head.AgeID, q.entries[q.chains[sel].head].AgeID)) {
				sel, bestCode = c, code
			}
		}
		if q.held() > 0 && now < q.selUntil && sel != q.sel {
			t.Fatalf("cycle %d: queue %d cached selection chain %d (until %d), scan selects %d",
				now, qi, q.sel, q.selUntil, sel)
		}
	}
}

// TestSchemeStress drives every organization with randomized dependent
// traffic and checks conservation and liveness: every dispatched
// instruction eventually issues exactly once, occupancy bookkeeping stays
// consistent, and the scheme never exceeds its capacity. Polling is the
// oracle of every scheme's broadcast-tracked state, and for the CAM
// organizations of the wakeup energy. The 70-queue IssueFIFO and the
// 80-chain MixBUFF need more than one bitset word; the FIFO issues one
// instruction per cycle so that its queues past the first word fill.
func TestSchemeStress(t *testing.T) {
	cases := map[string]struct {
		cfg   DomainConfig
		width int // issue budget per cycle
	}{
		"CAM":            {DomainConfig{Kind: KindCAM, Queues: 1, Entries: 32}, 4},
		"AdaptiveCAM":    {DomainConfig{Kind: KindAdaptiveCAM, Queues: 1, Entries: 32}, 4},
		"PreSched":       {DomainConfig{Kind: KindPreSched, Queues: 1, Entries: 32, Chains: 8}, 4},
		"IssueFIFO":      {DomainConfig{Kind: KindIssueFIFO, Queues: 4, Entries: 8}, 4},
		"IssueFIFO-70x2": {DomainConfig{Kind: KindIssueFIFO, Queues: 70, Entries: 2}, 1},
		"LatFIFO":        {DomainConfig{Kind: KindLatFIFO, Queues: 4, Entries: 8}, 4},
		"MixBUFF":        {DomainConfig{Kind: KindMixBUFF, Queues: 4, Entries: 8, Chains: 4}, 4},
		"MixBUFF-unb":    {DomainConfig{Kind: KindMixBUFF, Queues: 4, Entries: 8}, 4},
		"MixBUFF-2x80":   {DomainConfig{Kind: KindMixBUFF, Queues: 2, Entries: 80}, 4},
		"MixBUFF-flat": {DomainConfig{Kind: KindMixBUFF, Queues: 4, Entries: 8, Chains: 4,
			FlatSelectPriority: true}, 4},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			// LatFIFO and PreSched place by the estimator.
			opt := defaultOpts(isa.FPDomain)
			opt.Estimator = NewEstimator(opt.Latencies, opt.MemHitLat)
			s, err := New(c.cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			stress(t, s, opt.Estimator, c.width)
		})
	}
}

func stress(t *testing.T, s Scheme, est *Estimator, width int) {
	t.Helper()
	env := newStressEnv()
	r := rng.New(uint64(len(s.Name())) * 977)
	q := camOf(s)

	const total = 6000
	dispatched := 0
	seq := uint64(0)
	inFlight := map[uint64]bool{}
	issuedSeqs := map[uint64]bool{}
	var last *isa.Inst
	var cells uint64 // wakeup cells the recount charges

	for env.cycle = 1; dispatched < total || len(inFlight) > 0; env.cycle++ {
		if env.cycle > 20*total {
			t.Fatalf("%s: livelock, %d in flight after %d cycles (occ %d)",
				s.Name(), len(inFlight), env.cycle, s.Occupancy())
		}
		// Writeback phase: this cycle's results broadcast their tags
		// before anything issues. Each broadcast into a non-empty CAM
		// compares the operands of its file left unready after all of
		// the cycle's wakeups.
		camBusy := q != nil && q.Occupancy() > 0
		broadcasts := env.writeback(s)
		checkHeads(t, env, s)
		if q != nil {
			unready := checkCAM(t, env, q)
			if camBusy {
				cells += broadcasts[0]*unready[0] + broadcasts[1]*unready[1]
			}
			if got := s.Events().WakeupCAMCells; got != cells {
				t.Fatalf("%s: cycle %d: %d wakeup cells charged, recount gives %d",
					s.Name(), env.cycle, got, cells)
			}
		}
		// Issue phase.
		before := len(env.issued)
		s.Issue(env, width)
		for _, in := range env.issued[before:] {
			if issuedSeqs[in.Seq] {
				t.Fatalf("%s: seq %d issued twice", s.Name(), in.Seq)
			}
			issuedSeqs[in.Seq] = true
			if !inFlight[in.Seq] {
				t.Fatalf("%s: issued seq %d that was never dispatched", s.Name(), in.Seq)
			}
			delete(inFlight, in.Seq)
		}
		// Dispatch phase: up to 4 per cycle.
		for k := 0; k < 4 && dispatched < total; k++ {
			in := stressInst(r, seq, last)
			if !env.rename(in) {
				break
			}
			est.OnDispatch(in, env.cycle)
			if !s.Dispatch(env, in) {
				env.undo(in)
				if s.Occupancy() == 0 {
					t.Fatalf("%s: dispatch stalled on empty scheme", s.Name())
				}
				break
			}
			env.window = append(env.window, in)
			inFlight[in.Seq] = true
			seq++
			dispatched++
			last = in
			if s.Occupancy() > s.Capacity() {
				t.Fatalf("%s: occupancy %d exceeds capacity %d",
					s.Name(), s.Occupancy(), s.Capacity())
			}
		}
		// Occasional mispredict-resolution clears.
		if r.Bool(0.01) {
			s.OnMispredictResolved()
		}
	}
	if s.Occupancy() != 0 {
		t.Fatalf("%s: %d instructions stuck at end", s.Name(), s.Occupancy())
	}
	if len(issuedSeqs) != total {
		t.Fatalf("%s: issued %d of %d dispatched", s.Name(), len(issuedSeqs), total)
	}
}
