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
type camQueue struct {
	opt     Options
	cfg     DomainConfig
	entries []*isa.Inst
	ev      power.Events

	// unready counts the entries' unready operands per register file
	// (indexed by domIdx) as of cycle unreadyAt; Dispatch and Issue
	// mark it stale with -1.
	unready   [2]uint64
	unreadyAt int64
}

func newCAM(cfg DomainConfig, opt Options) *camQueue {
	return &camQueue{
		opt:       opt,
		cfg:       cfg,
		entries:   make([]*isa.Inst, 0, cfg.Total()),
		unreadyAt: -1,
	}
}

func (q *camQueue) Name() string          { return "CAM" }
func (q *camQueue) Occupancy() int        { return len(q.entries) }
func (q *camQueue) Capacity() int         { return q.cfg.Total() }
func (q *camQueue) Events() *power.Events { return &q.ev }

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
	in.QueueID = 0
	q.entries = append(q.entries, in)
	q.unreadyAt = -1
	q.ev.IQWrites++
	return true
}

// Issue selects up to budget ready instructions, oldest first. Entries are
// kept in dispatch order, so a single in-order scan implements the
// oldest-first position-based selection policy of the baseline.
func (q *camQueue) Issue(env Env, budget int) int {
	q.unreadyAt = -1
	if len(q.entries) == 0 {
		return 0 // empty queue: selection logic gated off
	}
	q.ev.SelectOps++
	q.ev.SelectEntries += uint64(len(q.entries))

	issued := 0
	kept := q.entries[:0]
	for i, in := range q.entries {
		if issued >= budget {
			kept = append(kept, q.entries[i:]...)
			break
		}
		if !OperandsReady(env, in) || !env.TryIssue(in) {
			kept = append(kept, in)
			continue
		}
		q.ev.IQReads++
		issued++
	}
	// Clear the tail so removed instructions are not retained.
	for i := len(kept); i < len(q.entries); i++ {
		q.entries[i] = nil
	}
	q.entries = kept
	return issued
}

// OnComplete models a result-tag broadcast: the tag lines are driven and
// every currently-unready operand of the matching register file compares.
// The unready operands are counted once per cycle: within a cycle,
// writeback changes neither the entries nor their operands' readiness,
// so every broadcast of the cycle drives the same cells.
func (q *camQueue) OnComplete(env Env, destFP bool) {
	if len(q.entries) == 0 {
		return
	}
	q.ev.WakeupBroadcasts++
	if now := env.Cycle(); q.unreadyAt != now {
		q.unready = [2]uint64{}
		for _, in := range q.entries {
			if in.PSrc1 != isa.NoReg && !env.OperandReady(in.Src1FP, in.PSrc1) {
				q.unready[domIdx(in.Src1FP)]++
			}
			if in.PSrc2 != isa.NoReg && !env.OperandReady(in.Src2FP, in.PSrc2) {
				q.unready[domIdx(in.Src2FP)]++
			}
		}
		q.unreadyAt = now
	}
	q.ev.WakeupCAMCells += q.unready[domIdx(destFP)]
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
