package core

import (
	"math/bits"

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
	fifoQueues
	opt   Options
	cfg   DomainConfig
	table [mapSlots]mapEntry
}

func newIssueFIFO(cfg DomainConfig, opt Options) *issueFIFO {
	return &issueFIFO{fifoQueues: newFIFOQueues(cfg.Queues, cfg.Entries), opt: opt, cfg: cfg}
}

func (f *issueFIFO) Name() string  { return "IssueFIFO" }
func (f *issueFIFO) Capacity() int { return f.cfg.Total() }

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
	r := &f.rings[m.queue]
	return r.n > 0 && r.at(r.n-1).Seq == m.seq
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
			if f.rings[m.queue].n < f.cfg.Entries {
				target = m.queue
			} else if !chainSrc2 {
				return false // full, single-operand: stall
			}
		}
	}
	if target < 0 && chainSrc2 {
		if m := f.table[mapSlot(in.Src2, in.Src2FP)]; f.tailProduces(m) {
			if f.rings[m.queue].n < f.cfg.Entries {
				target = m.queue
			} else {
				return false // full second-operand queue: stall
			}
		}
	}
	if target < 0 {
		for qi := range f.rings {
			if f.rings[qi].n == 0 {
				target = qi
				break
			}
		}
		if target < 0 {
			return false // no empty FIFO: stall
		}
	}

	f.push(env, target, in)
	if in.HasDest() {
		f.table[mapSlot(in.Dest, in.DestFP)] = mapEntry{queue: target, seq: in.Seq, valid: true}
		f.ev.QRenameWrites++
	}
	return true
}

// Issue issues ready heads oldest-first up to the budget.
func (f *issueFIFO) Issue(env Env, budget int) int { return f.issue(env, budget) }

// OnMispredictResolved clears the queue-map table, the cheap recovery the
// paper found to cost no measurable performance (the KeepMapOnMispredict
// ablation retains it instead).
func (f *issueFIFO) OnMispredictResolved() {
	if !f.cfg.KeepMapOnMispredict {
		clear(f.table[:])
	}
}

// fifoQueues holds the queues of the FIFO organizations, IssueFIFO and
// LatFIFO, and issues their heads. Each queue is a ring, and each head's
// readiness is tracked from broadcasts, so Issue offers env.TryIssue only
// the heads that are ready, oldest first.
type fifoQueues struct {
	rings []fifoRing
	heads headWatch // slot q: queue q's head
	srcs  uint64    // register sources of all heads
	occ   int
	ev    power.Events

	ready []*isa.Inst // scratch for age-ordering ready heads
}

// fifoRing is one queue: n instructions from buf[first], wrapping.
type fifoRing struct {
	buf      []*isa.Inst
	first, n int
}

// at returns the queue's i-th oldest instruction.
func (r *fifoRing) at(i int) *isa.Inst {
	if i += r.first; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

func newFIFOQueues(queues, entries int) fifoQueues {
	f := fifoQueues{
		rings: make([]fifoRing, queues),
		heads: newHeadWatch(queues),
		ready: make([]*isa.Inst, 0, queues),
	}
	buf := make([]*isa.Inst, queues*entries)
	for q := range f.rings {
		f.rings[q].buf = buf[q*entries : (q+1)*entries : (q+1)*entries]
	}
	return f
}

func (f *fifoQueues) Occupancy() int        { return f.occ }
func (f *fifoQueues) Events() *power.Events { return &f.ev }

// OnComplete wakes the heads waiting for the broadcast tag.
func (f *fifoQueues) OnComplete(_ Env, destFP bool, pdest int16) { f.heads.wake(destFP, pdest) }

// push appends in to queue q, which has room.
func (f *fifoQueues) push(env Env, q int, in *isa.Inst) {
	r := &f.rings[q]
	in.QueueID = q
	i := r.first + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = in
	r.n++
	f.occ++
	f.ev.FIFOWrites++
	if r.n == 1 {
		f.setHead(env, q, in)
	}
}

// setHead watches in as queue q's head.
func (f *fifoQueues) setHead(env Env, q int, in *isa.Inst) {
	f.heads.watch(env, q, in)
	f.srcs += uint64(in.NumSources())
}

// issue reads every head's sources in the ready-bit table and issues
// ready heads oldest-first up to the budget. A head exposed by an issue
// is watched at once and offered from the next cycle.
func (f *fifoQueues) issue(env Env, budget int) int {
	f.ev.RegsReadyReads += f.srcs
	f.ready = f.ready[:0]
	for wi, w := range f.heads.ready {
		for ; w != 0; w &= w - 1 {
			r := &f.rings[wi<<6+bits.TrailingZeros64(w)]
			f.ready = append(f.ready, r.buf[r.first])
		}
	}
	ageSorted(env, f.ready)

	issued := 0
	for _, in := range f.ready {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		f.pop(env, in.QueueID)
		issued++
	}
	return issued
}

// pop removes the head of queue q.
func (f *fifoQueues) pop(env Env, q int) {
	r := &f.rings[q]
	f.srcs -= uint64(r.buf[r.first].NumSources())
	r.buf[r.first] = nil
	if r.first++; r.first == len(r.buf) {
		r.first = 0
	}
	r.n--
	f.occ--
	f.ev.FIFOReads++
	if r.n > 0 {
		f.setHead(env, q, r.buf[r.first])
	} else {
		f.heads.ready.clear(q)
	}
}
