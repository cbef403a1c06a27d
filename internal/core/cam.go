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
// agrees with OperandsReady at every Issue. Entries sit in stable slots,
// each unready operand on its tag's waiter list, and a dispatch-order
// index array of slot numbers gives the selection order.
type camQueue struct {
	opt   Options
	cfg   DomainConfig
	slots []camEntry
	order []int32 // occupied slots in dispatch order, oldest first
	free  []int32 // unoccupied slots
	lists waitLists
	ev    power.Events

	ready   int       // entries with no blocking operand
	unready [2]uint64 // unready operands per register file (domIdx)

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
	tag  [2]uint16 // regTag of source k, valid while wait bit k is set
	wait uint8     // bit k set: source k (Src1, Src2) unready
	mask uint8     // wait bits that block issue (a store's data does not)
}

func newCAM(cfg DomainConfig, opt Options) *camQueue {
	n := cfg.Total()
	q := &camQueue{
		opt:   opt,
		cfg:   cfg,
		slots: make([]camEntry, n),
		order: make([]int32, 0, n),
		free:  make([]int32, n),
		lists: newWaitLists(n),
	}
	for s := range q.free {
		q.free[s] = int32(s)
	}
	return q
}

func (q *camQueue) Name() string   { return "CAM" }
func (q *camQueue) Occupancy() int { return len(q.order) }
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
	if len(q.free) == 0 {
		return false
	}
	q.settle()
	in.QueueID = 0
	s := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	e := &q.slots[s]
	*e = camEntry{in: in, mask: 3}
	if in.Class == isa.Store {
		e.mask = 1 // the address computation issues on Src1 alone
	}
	q.await(env, s, 0, in.Src1FP, in.PSrc1)
	q.await(env, s, 1, in.Src2FP, in.PSrc2)
	if e.wait&e.mask == 0 {
		q.ready++
	}
	q.order = append(q.order, s)
	q.ev.IQWrites++
	return true
}

// await puts source k of slot s on its tag's waiter list if it is
// unready.
func (q *camQueue) await(env Env, s int32, k uint, fp bool, preg int16) {
	if preg == isa.NoReg || env.OperandReady(fp, preg) {
		return
	}
	e := &q.slots[s]
	t := regTag(fp, preg)
	e.tag[k] = t
	e.wait |= 1 << k
	q.lists.push(t, 2*s+int32(k))
	q.unready[domIdx(fp)]++
}

// Issue selects up to budget ready instructions, oldest first. The index
// array keeps dispatch order, so a single in-order scan implements the
// oldest-first position-based selection policy of the baseline; it stops
// once every ready entry has been offered.
func (q *camQueue) Issue(env Env, budget int) int {
	q.settle()
	if len(q.order) == 0 {
		return 0 // empty queue: selection logic gated off
	}
	q.ev.SelectOps++
	q.ev.SelectEntries += uint64(len(q.order))

	issued, offered, kept, i := 0, 0, 0, 0
	for ; i < len(q.order) && offered < q.ready && issued < budget; i++ {
		s := q.order[i]
		if e := &q.slots[s]; e.wait&e.mask == 0 {
			offered++
			if env.TryIssue(e.in) {
				q.release(s)
				q.ev.IQReads++
				issued++
				continue
			}
		}
		q.order[kept] = s
		kept++
	}
	if kept < i {
		kept += copy(q.order[kept:], q.order[i:])
		q.order = q.order[:kept]
	}
	q.ready -= issued
	return issued
}

// release frees an issued entry's slot, unlinking its operands that
// still wait: a store issues with its data operand pending.
func (q *camQueue) release(s int32) {
	e := &q.slots[s]
	for k := uint(0); k < 2; k++ {
		if e.wait&(1<<k) != 0 {
			q.lists.unlink(e.tag[k], 2*s+int32(k))
			q.unready[e.tag[k]/isa.NumPhysicalRegs]--
		}
	}
	*e = camEntry{}
	q.free = append(q.free, s)
}

// OnComplete models a result-tag broadcast: the tag lines are driven,
// every currently-unready operand of the matching register file compares,
// and the operands waiting for the tag become ready. The compare charge is
// the operands of the file still unready after all of the cycle's
// wakeups, so it is settled once the cycle's broadcasts are over.
func (q *camQueue) OnComplete(env Env, destFP bool, pdest int16) {
	if len(q.order) == 0 {
		return
	}
	q.ev.WakeupBroadcasts++
	d := domIdx(destFP)
	q.pending[d]++
	for n := q.lists.take(regTag(destFP, pdest)); n >= 0; n = q.lists.next[n] {
		e := &q.slots[n>>1]
		blocked := e.wait&e.mask != 0
		e.wait &^= 1 << (n & 1)
		if blocked && e.wait&e.mask == 0 {
			q.ready++
		}
		q.unready[d]--
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
