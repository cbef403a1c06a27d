package core

import (
	"distiq/internal/isa"
	"distiq/internal/power"
)

// camQueue is the conventional out-of-order issue queue: a CAM array holds
// operand tags that are matched against every result broadcast (wakeup),
// and a selection tree picks the oldest ready instructions each cycle. Per
// the paper's baseline, the queue is multi-banked and spends wakeup energy
// only on unready operands (the Folegnani-González optimization), and the
// selection logic consumes nothing when the queue is empty.
//
// Readiness is tracked as the hardware tracks it: Dispatch reads which
// source operands are still unready, and OnComplete clears them when
// their producer's tag is broadcast. Under Env's wakeup contract this
// agrees with OperandsReady at every Issue.
type camQueue struct {
	opt     Options
	cfg     DomainConfig
	entries []camEntry // dispatch order, oldest first
	ev      power.Events

	ready   int                             // entries with no blocking operand
	unready [2]uint64                       // unready operands per register file (domIdx)
	waiters [2 * isa.NumPhysicalRegs]uint16 // unready operands per camTag

	// pending counts this cycle's broadcasts per register file, whose
	// WakeupCAMCells charge waits for the cycle's last wakeup. Issue,
	// which runs every cycle after the broadcasts, settles it, as do
	// Dispatch and Events.
	pending [2]uint64
}

// camEntry is one queue slot: the instruction, the tags of its unready
// sources and which of them still wait.
type camEntry struct {
	in   *isa.Inst
	tag  [2]uint16 // camTag of source k, valid while wait bit k is set
	wait uint8     // bit k set: source k (Src1, Src2) unready
	mask uint8     // wait bits that block issue (a store's data does not)
}

// camTag numbers a physical register across both register files.
func camTag(fp bool, preg int16) uint16 {
	return uint16(domIdx(fp)*isa.NumPhysicalRegs) + uint16(preg)
}

func newCAM(cfg DomainConfig, opt Options) *camQueue {
	return &camQueue{
		opt:     opt,
		cfg:     cfg,
		entries: make([]camEntry, 0, cfg.Total()),
	}
}

func (q *camQueue) Name() string   { return "CAM" }
func (q *camQueue) Occupancy() int { return len(q.entries) }
func (q *camQueue) Capacity() int  { return q.cfg.Total() }

func (q *camQueue) Events() *power.Events {
	q.settle()
	return &q.ev
}

func (q *camQueue) Geometry() power.Geometry {
	banks := 1
	if q.cfg.Total() >= 64 {
		banks = 8 // the paper's 8 banks x 8 entries
	}
	return power.Geometry{
		Style:       power.StyleCAM,
		Queues:      1,
		Entries:     q.cfg.Total(),
		TagBits:     8, // log2(160) rounded up
		PayloadBits: 80,
		Banks:       banks,
		FUFanout:    q.opt.fanout(),
	}
}

func (q *camQueue) Dispatch(env Env, in *isa.Inst) bool {
	if len(q.entries) >= cap(q.entries) {
		return false
	}
	q.settle()
	in.QueueID = 0
	e := camEntry{in: in, mask: 3}
	if in.Class == isa.Store {
		e.mask = 1 // the address computation issues on Src1 alone
	}
	q.await(env, &e, 0, in.Src1FP, in.PSrc1)
	q.await(env, &e, 1, in.Src2FP, in.PSrc2)
	if e.wait&e.mask == 0 {
		q.ready++
	}
	q.entries = append(q.entries, e)
	q.ev.IQWrites++
	return true
}

// await records source k of e as waiting for its tag if it is unready.
func (q *camQueue) await(env Env, e *camEntry, k uint, fp bool, preg int16) {
	if preg == isa.NoReg || env.OperandReady(fp, preg) {
		return
	}
	t := camTag(fp, preg)
	e.tag[k] = t
	e.wait |= 1 << k
	q.waiters[t]++
	q.unready[domIdx(fp)]++
}

// Issue selects up to budget ready instructions, oldest first. Entries are
// kept in dispatch order, so a single in-order scan implements the
// oldest-first position-based selection policy of the baseline; it stops
// once every ready entry has been offered.
func (q *camQueue) Issue(env Env, budget int) int {
	q.settle()
	if len(q.entries) == 0 {
		return 0 // empty queue: selection logic gated off
	}
	q.ev.SelectOps++
	q.ev.SelectEntries += uint64(len(q.entries))

	issued, offered, kept, i := 0, 0, 0, 0
	for ; i < len(q.entries) && offered < q.ready && issued < budget; i++ {
		e := q.entries[i]
		if e.wait&e.mask == 0 {
			offered++
			if env.TryIssue(e.in) {
				q.release(e)
				q.ev.IQReads++
				issued++
				continue
			}
		}
		q.entries[kept] = e
		kept++
	}
	if kept < i {
		kept += copy(q.entries[kept:], q.entries[i:])
		// Clear the tail so removed instructions are not retained.
		clear(q.entries[kept:])
		q.entries = q.entries[:kept]
	}
	q.ready -= issued
	return issued
}

// release drops an issued entry's operands that still wait: a store
// issues with its data operand pending.
func (q *camQueue) release(e camEntry) {
	for k := uint(0); k < 2; k++ {
		if e.wait&(1<<k) != 0 {
			q.waiters[e.tag[k]]--
			q.unready[e.tag[k]/isa.NumPhysicalRegs]--
		}
	}
}

// OnComplete models a result-tag broadcast: the tag lines are driven,
// every currently-unready operand of the matching register file compares,
// and the operands waiting for the tag become ready. The compare charge is
// the operands of the file still unready after all of the cycle's
// wakeups, so it is settled once the cycle's broadcasts are over.
func (q *camQueue) OnComplete(env Env, destFP bool, pdest int16) {
	if len(q.entries) == 0 {
		return
	}
	q.ev.WakeupBroadcasts++
	q.pending[domIdx(destFP)]++
	t := camTag(destFP, pdest)
	n := q.waiters[t]
	if n == 0 {
		return
	}
	q.waiters[t] = 0
	q.unready[domIdx(destFP)] -= uint64(n)
	for i := range q.entries {
		e := &q.entries[i]
		w := e.wait
		if w&1 != 0 && e.tag[0] == t {
			w &^= 1
			n--
		}
		if w&2 != 0 && e.tag[1] == t {
			w &^= 2
			n--
		}
		if w == e.wait {
			continue
		}
		if e.wait&e.mask != 0 && w&e.mask == 0 {
			q.ready++
		}
		e.wait = w
		if n == 0 {
			return
		}
	}
}

// settle charges the pending broadcasts' wakeup cells.
func (q *camQueue) settle() {
	if q.pending == [2]uint64{} {
		return
	}
	q.ev.WakeupCAMCells += q.pending[0]*q.unready[0] + q.pending[1]*q.unready[1]
	q.pending = [2]uint64{}
}

func (q *camQueue) OnMispredictResolved() {}

// ageSorted is a helper shared by the multi-queue schemes: it sorts
// candidate instructions oldest first under the modular age encoding.
// The slices are tiny (one candidate per queue, so at most a few dozen
// entries), so an insertion sort beats sort.Slice — and, unlike
// sort.Slice, performs no allocation, keeping the per-cycle issue path
// allocation-free in steady state.
func ageSorted(env Env, ins []*isa.Inst) {
	for i := 1; i < len(ins); i++ {
		in := ins[i]
		j := i - 1
		for j >= 0 && env.Older(in.AgeID, ins[j].AgeID) {
			ins[j+1] = ins[j]
			j--
		}
		ins[j+1] = in
	}
}
