package pipeline

import (
	"fmt"
	"sync"

	"distiq/internal/bpred"
	"distiq/internal/cache"
	"distiq/internal/core"
	"distiq/internal/fu"
	"distiq/internal/isa"
	"distiq/internal/lsq"
	"distiq/internal/rename"
	"distiq/internal/rob"
)

// Fetcher supplies the dynamic instruction stream. trace.Generator
// implements it; tests supply hand-built streams.
type Fetcher interface {
	Next(in *isa.Inst)
}

// eventRing must exceed the longest possible completion distance (load
// missing everywhere: 1 + 2 + 10 + 102 cycles, plus slack).
const eventRing = 1024

// Pipeline is one simulated core.
type Pipeline struct {
	cfg Config
	gen Fetcher

	cycle int64

	pred *bpred.Hybrid
	btb  *bpred.BTB
	hier *cache.Hierarchy
	regs [isa.NumDomains]*rename.RegFile
	rob  *rob.ROB
	ldst *lsq.LSQ
	fus  *fu.Pool

	schemes   [isa.NumDomains]core.Scheme
	estimator *core.Estimator

	// Fetch state. The fetch queue is a ring of cfg.FetchQueue slots
	// holding fetchLen instructions from fetchHead on.
	fetchQ         []*isa.Inst
	fetchHead      int
	fetchLen       int
	fetchStall     int64     // fetch resumes at this cycle
	pendingBranch  *isa.Inst // unresolved mispredicted branch gating fetch
	pendingFetch   *isa.Inst // instruction waiting on an L1I miss
	pendingFetchAt int64     // cycle the missed instruction arrives
	lastFetchLine  uint64    // last instruction-cache line touched
	haveFetchLine  bool

	// Completion events, a ring of per-cycle lists. Each list is an
	// intrusive FIFO threaded through isa.Inst.NextEvent, so scheduling
	// and draining completions never allocates. Release hands the ring
	// to the next pipeline (newRing).
	events *[eventRing]eventList

	// Per-cycle issue budgets.
	dPortsUsed int
	widthUsed  [isa.NumDomains]int

	// Instruction storage: the slab and its free list.
	insts     []isa.Inst
	freeInsts []*isa.Inst

	tracer Tracer

	stats Stats
}

// New builds a pipeline around cfg, reading instructions from gen.
func New(cfg Config, gen Fetcher) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:    cfg,
		gen:    gen,
		pred:   bpred.NewDefaultHybrid(),
		btb:    bpred.NewDefaultBTB(),
		hier:   cache.NewHierarchy(cfg.Hier),
		rob:    rob.New(cfg.ROBSize),
		ldst:   lsq.New(cfg.ROBSize),
		fus:    fu.New(cfg.FUCounts, cfg.IQ.DistributedFU),
		fetchQ: make([]*isa.Inst, cfg.FetchQueue),
		events: newRing(),
	}
	// At most ROB + fetch queue + 1 (pending I-miss) instructions are
	// ever in flight; one slab of that many keeps the steady-state cycle
	// loop allocation-free.
	p.insts, p.freeInsts = newSlab(cfg.ROBSize + cfg.FetchQueue + 1)
	p.regs[isa.IntDomain] = rename.NewDefault(isa.IntDomain)
	p.regs[isa.FPDomain] = rename.NewDefault(isa.FPDomain)

	needEst := cfg.IQ.Int.Kind == core.KindLatFIFO || cfg.IQ.FP.Kind == core.KindLatFIFO ||
		cfg.IQ.Int.Kind == core.KindPreSched || cfg.IQ.FP.Kind == core.KindPreSched
	if needEst {
		p.estimator = core.NewEstimator(cfg.Latencies, cfg.Hier.L1D.Latency)
	}
	mkOpts := func(d isa.Domain) core.Options {
		return core.Options{
			Domain:      d,
			Latencies:   cfg.Latencies,
			MemHitLat:   cfg.Hier.L1D.Latency,
			Distributed: cfg.IQ.DistributedFU,
			FUCounts:    [isa.NumFUKinds]int(cfg.FUCounts),
			Estimator:   p.estimator,
		}
	}
	var err error
	if p.schemes[isa.IntDomain], err = core.New(cfg.IQ.Int, mkOpts(isa.IntDomain)); err != nil {
		return nil, err
	}
	if p.schemes[isa.FPDomain], err = core.New(cfg.IQ.FP, mkOpts(isa.FPDomain)); err != nil {
		return nil, err
	}
	return p, nil
}

// Cycle implements core.Env.
func (p *Pipeline) Cycle() int64 { return p.cycle }

// OperandReady implements core.Env.
func (p *Pipeline) OperandReady(fp bool, preg int16) bool {
	return p.regs[regDomain(fp)].Ready(preg, p.cycle)
}

// Older implements core.Env.
func (p *Pipeline) Older(a, b uint32) bool { return p.rob.Older(a, b) }

func regDomain(fp bool) isa.Domain {
	if fp {
		return isa.FPDomain
	}
	return isa.IntDomain
}

// TryIssue implements core.Env: the full issue check and reservation.
func (p *Pipeline) TryIssue(in *isa.Inst) bool {
	d := in.Domain()
	if p.widthUsed[d] >= p.issueWidth(d) {
		return false
	}
	if !core.OperandsReady(p, in) {
		return false
	}
	var fwdStore *isa.Inst
	if in.Class == isa.Load {
		if p.dPortsUsed >= p.hier.DPorts {
			return false
		}
		if !p.cfg.PerfectDisambiguation && !p.ldst.LoadMayIssue(in.Seq, p.cycle) {
			return false
		}
		// A load matching an older store whose data has not been
		// produced yet (the store issued on its address alone) must
		// wait until the data's arrival time is known.
		if st, ok := p.ldst.Forward(in.Seq, in.Addr); ok {
			if p.regs[regDomain(st.Src2FP)].ReadyAt(st.PSrc2) >= rename.FarFuture {
				return false
			}
			fwdStore = st
		}
	}
	lat := p.cfg.Latencies[in.Class]
	if !p.fus.Acquire(in.Class.FU(), in.QueueID, p.cycle, fu.Occupancy(in.Class, lat)) {
		return false
	}

	completeAt := p.cycle + int64(lat)
	if in.Class == isa.Load {
		p.dPortsUsed++
		if fwdStore != nil {
			// Store-to-load forwarding: value arrives at hit
			// latency, but never before the store's data.
			p.stats.LoadForwards++
			completeAt += int64(p.hier.L1D.Latency())
			if dr := p.regs[regDomain(fwdStore.Src2FP)].ReadyAt(fwdStore.PSrc2); dr > completeAt {
				completeAt = dr
			}
		} else {
			completeAt += int64(p.hier.DataAccess(in.Addr, false))
		}
	}

	in.Issued = true
	if p.tracer != nil {
		p.tracer.OnIssue(p.cycle, in)
	}
	if in.PDest != isa.NoReg {
		p.regs[regDomain(in.DestFP)].SetReadyAt(in.PDest, completeAt)
	}
	if in.Class == isa.Store {
		p.ldst.StoreIssued(in, p.cycle+isa.AddressLatency)
	}
	p.schedule(in, completeAt)
	p.widthUsed[d]++
	if d == isa.IntDomain {
		p.stats.IssuedInt++
	} else {
		p.stats.IssuedFP++
	}
	p.schemes[d].Events().MuxIssues[in.Class.FU()]++
	return true
}

func (p *Pipeline) issueWidth(d isa.Domain) int {
	if d == isa.FPDomain {
		return p.cfg.IssueWidthFP
	}
	return p.cfg.IssueWidthInt
}

// eventList is one ring slot's intrusive FIFO of completing instructions
// (linked through isa.Inst.NextEvent, in schedule order).
type eventList struct {
	head, tail *isa.Inst
}

func (l *eventList) push(in *isa.Inst) {
	in.NextEvent = nil
	if l.tail == nil {
		l.head = in
	} else {
		l.tail.NextEvent = in
	}
	l.tail = in
}

func (p *Pipeline) schedule(in *isa.Inst, at int64) {
	if at <= p.cycle {
		at = p.cycle + 1
	}
	if at-p.cycle >= eventRing {
		panic(fmt.Sprintf("pipeline: completion distance %d exceeds event ring", at-p.cycle))
	}
	p.events[at%eventRing].push(in)
}

// Step advances the simulation one cycle. Stages run in reverse pipeline
// order so same-cycle structural reuse (an issued entry freeing a slot for
// dispatch) resolves consistently.
func (p *Pipeline) Step() {
	p.cycle++
	p.dPortsUsed = 0
	p.widthUsed = [isa.NumDomains]int{}

	p.writeback()
	p.commit()
	p.issue()
	p.dispatch()
	p.fetch()

	p.stats.Cycles++
}

// writeback processes completion events scheduled for this cycle.
func (p *Pipeline) writeback() {
	slot := p.cycle % eventRing
	for in := p.events[slot].head; in != nil; {
		next := in.NextEvent
		in.NextEvent = nil
		in.Completed = true
		if p.tracer != nil {
			p.tracer.OnWriteback(p.cycle, in)
		}
		if in.HasDest() {
			// Result-tag broadcast reaches both domains' queues
			// (FP chains consume integer results through loads,
			// and stores consume FP data).
			p.schemes[isa.IntDomain].OnComplete(p, in.DestFP, in.PDest)
			p.schemes[isa.FPDomain].OnComplete(p, in.DestFP, in.PDest)
		}
		if in.Mispredicted && in == p.pendingBranch {
			p.pendingBranch = nil
			p.fetchStall = p.cycle + int64(p.cfg.RedirectPenalty)
			p.haveFetchLine = false
			p.schemes[isa.IntDomain].OnMispredictResolved()
			p.schemes[isa.FPDomain].OnMispredictResolved()
		}
		in = next
	}
	p.events[slot] = eventList{}
}

// commit retires completed instructions in order.
func (p *Pipeline) commit() {
	for n := 0; n < p.cfg.CommitWidth; n++ {
		head := p.rob.Head()
		if head == nil || !head.Completed {
			return
		}
		p.rob.Pop()
		if p.tracer != nil {
			p.tracer.OnCommit(p.cycle, head)
		}
		if head.Class == isa.Store {
			p.hier.DataAccess(head.Addr, true)
			p.ldst.CommitStore(head)
		}
		if head.HasDest() {
			p.regs[regDomain(head.DestFP)].Free(head.POld)
		}
		p.stats.Committed++
		p.stats.ByClass[head.Class]++
		p.recycle(head)
	}
}

// issue runs both domains' selection logic.
func (p *Pipeline) issue() {
	p.schemes[isa.IntDomain].Issue(p, p.cfg.IssueWidthInt)
	p.schemes[isa.FPDomain].Issue(p, p.cfg.IssueWidthFP)
}

// dispatch renames and places up to DispatchWidth instructions, stalling
// in order at the first structural hazard.
func (p *Pipeline) dispatch() {
	for n := 0; n < p.cfg.DispatchWidth; n++ {
		if p.fetchLen == 0 {
			return
		}
		in := p.fetchQ[p.fetchHead]
		if in.FetchCycle+int64(p.cfg.DecodeDepth) > p.cycle {
			return
		}
		if p.rob.Full() {
			p.stats.StallROB++
			return
		}
		destRF := p.regs[regDomain(in.DestFP)]
		if in.HasDest() && !destRF.CanAllocate() {
			p.stats.StallRegs++
			return
		}

		// Rename.
		if in.Src1 != isa.NoReg {
			in.PSrc1 = p.regs[regDomain(in.Src1FP)].Lookup(in.Src1)
		}
		if in.Src2 != isa.NoReg {
			in.PSrc2 = p.regs[regDomain(in.Src2FP)].Lookup(in.Src2)
		}
		if in.HasDest() {
			in.PDest, in.POld = destRF.Allocate(in.Dest)
		}
		if p.estimator != nil {
			p.estimator.OnDispatch(in, p.cycle)
		}

		if !p.schemes[in.Domain()].Dispatch(p, in) {
			if in.HasDest() {
				destRF.Undo(in.Dest, in.PDest, in.POld)
				in.PDest, in.POld = isa.NoReg, isa.NoReg
			}
			p.stats.StallScheme++
			return
		}

		if !p.rob.Alloc(in) {
			panic("pipeline: ROB alloc failed after Full check")
		}
		if in.Class == isa.Store {
			p.ldst.AddStore(in)
		}
		if p.tracer != nil {
			p.tracer.OnDispatch(p.cycle, in)
		}
		p.fetchQ[p.fetchHead] = nil
		if p.fetchHead++; p.fetchHead == len(p.fetchQ) {
			p.fetchHead = 0
		}
		p.fetchLen--
	}
}

// fetch pulls up to FetchWidth instructions from the trace, consulting the
// instruction cache, branch predictor and BTB, and stopping at taken
// branches, I-cache misses and unresolved mispredictions.
func (p *Pipeline) fetch() {
	// An instruction stalled on an L1I miss enters the queue when its
	// line arrives.
	if p.pendingFetch != nil {
		if p.cycle < p.pendingFetchAt {
			p.stats.ICacheMissCycles++
			return
		}
		if p.fetchLen == len(p.fetchQ) {
			return
		}
		in := p.pendingFetch
		p.pendingFetch = nil
		in.FetchCycle = p.cycle
		if !p.enqueueFetched(in) {
			return
		}
	}
	if p.pendingBranch != nil || p.cycle < p.fetchStall {
		return
	}

	for n := 0; n < p.cfg.FetchWidth && p.fetchLen < len(p.fetchQ); n++ {
		in := p.allocInst()
		p.gen.Next(in)
		in.FetchCycle = p.cycle

		line := in.PC &^ uint64(p.cfg.Hier.L1I.LineSize-1)
		if !p.haveFetchLine || line != p.lastFetchLine {
			lat := p.hier.InstFetch(in.PC)
			p.lastFetchLine, p.haveFetchLine = line, true
			if lat > p.hier.L1I.Latency() {
				// Miss: this instruction arrives with the line.
				p.pendingFetch = in
				p.pendingFetchAt = p.cycle + int64(lat)
				return
			}
		}
		if !p.enqueueFetched(in) {
			return
		}
	}
}

// enqueueFetched appends a fetched instruction and applies branch-handling
// side effects. It returns false when fetch must stop this cycle (taken
// branch, misfetch or misprediction).
func (p *Pipeline) enqueueFetched(in *isa.Inst) bool {
	tail := p.fetchHead + p.fetchLen
	if tail >= len(p.fetchQ) {
		tail -= len(p.fetchQ)
	}
	p.fetchQ[tail] = in
	p.fetchLen++
	if p.tracer != nil {
		p.tracer.OnFetch(p.cycle, in)
	}
	if in.Class != isa.Branch {
		return true
	}
	p.stats.Branches++
	correct := p.pred.PredictAndTrain(in.PC, in.Taken)
	btbHit := true
	if in.Taken {
		_, btbHit = p.btb.Lookup(in.PC)
		p.btb.Insert(in.PC, in.Target)
	}
	switch {
	case !correct:
		// Direction misprediction: fetch resumes after the branch
		// executes (writeback handles the redirect).
		in.Mispredicted = true
		p.pendingBranch = in
		p.stats.Mispredicts++
	case in.Taken && !btbHit:
		// Correct direction but unknown target: redirect after
		// decode computes the target.
		p.stats.Misfetches++
		p.fetchStall = p.cycle + int64(p.cfg.DecodeDepth)
		p.haveFetchLine = false
	case in.Taken:
		// Taken branch ends the fetch group.
		p.haveFetchLine = false
	default:
		return true
	}
	return false
}

func (p *Pipeline) allocInst() *isa.Inst {
	if n := len(p.freeInsts); n > 0 {
		in := p.freeInsts[n-1]
		p.freeInsts = p.freeInsts[:n-1]
		return in
	}
	return &isa.Inst{}
}

func (p *Pipeline) recycle(in *isa.Inst) {
	p.freeInsts = append(p.freeInsts, in)
}

// instSlab is a released pipeline's instruction storage.
type instSlab struct {
	insts []isa.Inst
	free  []*isa.Inst
}

// slabPool recycles released pipelines' instruction slabs.
var slabPool sync.Pool

// newSlab returns n zeroed instructions and a free list holding each,
// reusing a released slab large enough.
func newSlab(n int) ([]isa.Inst, []*isa.Inst) {
	s, ok := slabPool.Get().(*instSlab)
	if ok && cap(s.insts) >= n {
		s.insts = s.insts[:n]
		clear(s.insts)
	} else {
		s = &instSlab{insts: make([]isa.Inst, n), free: make([]*isa.Inst, 0, n)}
	}
	free := s.free[:0]
	for i := range s.insts {
		free = append(free, &s.insts[i])
	}
	return s.insts, free
}

// ringPool recycles released pipelines' completion-event rings.
var ringPool sync.Pool

// newRing returns an empty completion-event ring, reusing a released
// one. A released ring still holds the events its pipeline left in
// flight, so it is cleared.
func newRing() *[eventRing]eventList {
	r, ok := ringPool.Get().(*[eventRing]eventList)
	if !ok {
		return new([eventRing]eventList)
	}
	*r = [eventRing]eventList{}
	return r
}

// Release hands the pipeline's cache, BTB, instruction and event-ring
// arrays to the next pipeline built, which resets them to their fresh
// state. The pipeline must not be used afterwards. A pipeline that is
// never released leaves its arrays to the garbage collector; it behaves
// the same.
func (p *Pipeline) Release() {
	p.hier.Release()
	p.btb.Release()
	slabPool.Put(&instSlab{insts: p.insts, free: p.freeInsts})
	ringPool.Put(p.events)
	p.insts, p.freeInsts, p.events = nil, nil, nil
}

// Run advances the pipeline until n more instructions have committed. It
// panics if the machine stops making progress (a scheme deadlock), which
// is a simulator bug worth failing loudly on.
func (p *Pipeline) Run(n uint64) {
	target := p.stats.Committed + n
	lastCommitted := p.stats.Committed
	idle := 0
	for p.stats.Committed < target {
		p.Step()
		if p.stats.Committed == lastCommitted {
			idle++
			if idle > 200000 {
				panic(fmt.Sprintf("pipeline: no commit for %d cycles at cycle %d (%s/%s, rob=%d, iq=%d/%d)",
					idle, p.cycle,
					p.schemes[0].Name(), p.schemes[1].Name(),
					p.rob.Len(),
					p.schemes[0].Occupancy(), p.schemes[1].Occupancy()))
			}
		} else {
			idle = 0
			lastCommitted = p.stats.Committed
		}
	}
}

// Warmup runs n committed instructions and then clears the statistics and
// energy counters, keeping all microarchitectural state (caches,
// predictors, occupancies) warm — the paper's skip-initialization
// methodology.
func (p *Pipeline) Warmup(n uint64) {
	p.Run(n)
	p.stats = Stats{}
	p.schemes[isa.IntDomain].Events().Reset()
	p.schemes[isa.FPDomain].Events().Reset()
}

// Stats returns a copy of the counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// Scheme returns the issue scheme of a domain (for reporting).
func (p *Pipeline) Scheme(d isa.Domain) core.Scheme { return p.schemes[d] }

// Hierarchy exposes the memory system (for reporting).
func (p *Pipeline) Hierarchy() *cache.Hierarchy { return p.hier }

// Predictor exposes the branch predictor (for reporting).
func (p *Pipeline) Predictor() *bpred.Hybrid { return p.pred }

// CurrentCycle returns the simulation time.
func (p *Pipeline) CurrentCycle() int64 { return p.cycle }
