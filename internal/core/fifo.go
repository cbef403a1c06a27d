package core

import (
	"distiq/internal/isa"
	"distiq/internal/power"
)

// mapSlots is the size of a queue-map table: one slot per logical
// register of each register file.
const mapSlots = 2 * isa.NumLogicalRegs

// mapSlot returns the queue-map table slot of a logical register.
func mapSlot(reg int16, fp bool) int {
	return domIdx(fp)*isa.NumLogicalRegs + int(reg)
}

// mapEntry records which queue's tail produces a register.
type mapEntry struct {
	queue int
	seq   uint64 // sequence number of the producing instruction
	valid bool
}

// issueFIFO is Palacharla's dependence-based FIFO organization. A small
// table maps each register to the queue whose tail instruction produces
// it; dispatched instructions are appended behind their producers, so each
// FIFO holds a dependence chain and only queue heads are considered for
// issue, eliminating the wakeup CAM.
type issueFIFO struct {
	opt    Options
	cfg    DomainConfig
	queues [][]*isa.Inst
	table  [mapSlots]mapEntry
	ev     power.Events
	occ    int

	heads []*isa.Inst // scratch for age-ordering heads
}

func newIssueFIFO(cfg DomainConfig, opt Options) *issueFIFO {
	f := &issueFIFO{
		opt:    opt,
		cfg:    cfg,
		queues: make([][]*isa.Inst, cfg.Queues),
		heads:  make([]*isa.Inst, 0, cfg.Queues),
	}
	for i := range f.queues {
		f.queues[i] = make([]*isa.Inst, 0, cfg.Entries)
	}
	return f
}

func (f *issueFIFO) Name() string          { return "IssueFIFO" }
func (f *issueFIFO) Occupancy() int        { return f.occ }
func (f *issueFIFO) Capacity() int         { return f.cfg.Total() }
func (f *issueFIFO) Events() *power.Events { return &f.ev }

func (f *issueFIFO) Geometry() power.Geometry {
	return power.Geometry{
		Style:       power.StyleFIFO,
		Queues:      f.cfg.Queues,
		Entries:     f.cfg.Entries,
		TagBits:     8,
		PayloadBits: 80,
		FUFanout:    f.opt.fanout(),
	}
}

// tailProduces reports whether the table entry still names the producing
// instruction at the tail of its queue (entries self-invalidate when the
// producer issues or is buried).
func (f *issueFIFO) tailProduces(m mapEntry) bool {
	if !m.valid {
		return false
	}
	q := f.queues[m.queue]
	return len(q) > 0 && q[len(q)-1].Seq == m.seq
}

// Dispatch implements the paper's reading of Palacharla's heuristics:
//
//  1. if a queue's tail produces the first operand, append there; if that
//     queue is full and this is the only register operand, stall;
//  2. else if a queue's tail produces the second operand, append there;
//     if full, stall;
//  3. otherwise use an empty queue; if none exists, stall.
func (f *issueFIFO) Dispatch(env Env, in *isa.Inst) bool {
	f.ev.QRenameReads += uint64(in.NumSources())

	// A store is placed by its address operand only: its issue-queue
	// entry is the address computation (the data is consumed at
	// commit), so chaining it behind the data producer would bury the
	// address and stall every younger load on the AllStoreAddr rule.
	chainSrc2 := in.Src2 != isa.NoReg && in.Class != isa.Store

	target := -1
	if in.Src1 != isa.NoReg {
		if m := f.table[mapSlot(in.Src1, in.Src1FP)]; f.tailProduces(m) {
			if len(f.queues[m.queue]) < f.cfg.Entries {
				target = m.queue
			} else if !chainSrc2 {
				return false // full, single-operand: stall
			}
		}
	}
	if target < 0 && chainSrc2 {
		if m := f.table[mapSlot(in.Src2, in.Src2FP)]; f.tailProduces(m) {
			if len(f.queues[m.queue]) < f.cfg.Entries {
				target = m.queue
			} else {
				return false // full second-operand queue: stall
			}
		}
	}
	if target < 0 {
		for qi := range f.queues {
			if len(f.queues[qi]) == 0 {
				target = qi
				break
			}
		}
		if target < 0 {
			return false // no empty FIFO: stall
		}
	}

	f.place(in, target)
	return true
}

func (f *issueFIFO) place(in *isa.Inst, qi int) {
	in.QueueID = qi
	f.queues[qi] = append(f.queues[qi], in)
	f.occ++
	f.ev.FIFOWrites++
	if in.HasDest() {
		f.table[mapSlot(in.Dest, in.DestFP)] = mapEntry{queue: qi, seq: in.Seq, valid: true}
		f.ev.QRenameWrites++
	}
}

// Issue checks every queue head against the ready-bit table and issues
// ready heads oldest-first up to the budget.
func (f *issueFIFO) Issue(env Env, budget int) int {
	f.heads = f.heads[:0]
	for qi := range f.queues {
		if len(f.queues[qi]) == 0 {
			continue
		}
		head := f.queues[qi][0]
		f.ev.RegsReadyReads += uint64(head.NumSources())
		if OperandsReady(env, head) {
			f.heads = append(f.heads, head)
		}
	}
	ageSorted(env, f.heads)

	issued := 0
	for _, in := range f.heads {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		qi := in.QueueID
		copy(f.queues[qi], f.queues[qi][1:])
		f.queues[qi][len(f.queues[qi])-1] = nil
		f.queues[qi] = f.queues[qi][:len(f.queues[qi])-1]
		f.occ--
		f.ev.FIFOReads++
		issued++
	}
	return issued
}

func (f *issueFIFO) OnComplete(Env, bool, int16) {}

// OnMispredictResolved clears the queue-map table, the cheap recovery the
// paper found to cost no measurable performance (the KeepMapOnMispredict
// ablation retains it instead).
func (f *issueFIFO) OnMispredictResolved() {
	if !f.cfg.KeepMapOnMispredict {
		clear(f.table[:])
	}
}
