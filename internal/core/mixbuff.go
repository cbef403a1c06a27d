package core

import (
	"math"
	"math/bits"

	"distiq/internal/isa"
	"distiq/internal/power"
)

// Latency codes broadcast to the queue entries, one 2-bit value per chain
// (Figure 5). Lower values win selection; the age identifier breaks ties,
// so the concatenation code‖age selects the oldest instruction of the
// highest-priority chain with a plain minimum circuit.
//
// The paper defines the codes relative to its select-then-issue-next-cycle
// timing: 00 = the chain's last issued instruction finishes next cycle
// (first-time-ready consumers issue just in time), 01 = it already
// finished (a delayed consumer), 11 = two or more cycles remain. Our
// pipeline uses the standard atomic wakeup+select abstraction (issue takes
// effect in the selection cycle), so the same priorities are expressed as:
// codeFirstTime when the chain's result became usable exactly this cycle,
// codeDelayed when it became usable earlier, codeNotReady otherwise. The
// priority order — first-time ready over delayed over not-ready — is
// identical to the paper's.
const (
	codeFirstTime = 0 // paper's 00
	codeDelayed   = 1 // paper's 01
	codeNotReady  = 3 // paper's 11
)

// chainState is one chain of one queue: the queue entries holding its
// oldest and youngest instruction, the cycles that give its latency code
// and allocation bookkeeping. A chain is busy while it holds instructions.
type chainState struct {
	head, tail int    // entries of the oldest and youngest instruction; -1 when empty
	gen        uint32 // generation, invalidates stale map entries
	readyAt    int64  // cycle the last issued instruction's result is usable
	readySince int64  // last cycle of the chain's first-time window
}

// mixQueue is one buffer: its entries, each linked to the entry of the
// next younger instruction of its chain, the free entries, the chain
// latency table and the cached selection.
type mixQueue struct {
	entries []*isa.Inst
	next    []int // entry of the next younger instruction of the same chain
	free    []int // unoccupied entries
	chains  []chainState
	busy    bitset // chains holding instructions

	// sel is the chain whose head the selection logic picks, -1 for
	// none. It holds until selUntil, the first cycle a busy chain's code
	// changes; a new chain or an issue resets selUntil to 0.
	sel      int
	selUntil int64
}

// held returns the number of instructions in the buffer.
func (q *mixQueue) held() int { return len(q.entries) - len(q.free) }

// push appends in to chain c in a free entry.
func (q *mixQueue) push(c int, in *isa.Inst) {
	e := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	q.entries[e], q.next[e] = in, -1
	ch := &q.chains[c]
	if ch.head < 0 {
		ch.head = e
	} else {
		q.next[ch.tail] = e
	}
	ch.tail = e
}

// pop frees the entry of chain c's oldest instruction.
func (q *mixQueue) pop(c int) {
	ch := &q.chains[c]
	e := ch.head
	ch.head = q.next[e]
	if ch.head < 0 {
		ch.tail = -1
	}
	q.entries[e] = nil
	q.free = append(q.free, e)
}

// mixChainMapEntry records, per register, the queue/chain whose last
// instruction produces it.
type mixChainMapEntry struct {
	queue, chain int
	seq          uint64
	gen          uint32
	valid        bool
}

// mixBUFF is the paper's proposed organization: each queue is a small RAM
// buffer holding several dependence chains; a per-queue chain latency
// table paces issue without wakeup, and the selection logic picks one
// instruction per queue per cycle by minimum code‖age.
//
// Every instruction of a chain shares the chain's code, so minimum
// code‖age always picks the oldest instruction of some chain. The
// simulator therefore threads each chain through the buffer's entries in
// dispatch order and compares only chain heads, while the energy events
// still charge the whole buffer. A chain's code changes only at cycles
// known in advance, so each queue keeps its selection until a chain head
// or a code changes, and the chain heads' readiness is tracked from
// broadcasts.
type mixBUFF struct {
	opt    Options
	cfg    DomainConfig
	chainN int // chains per queue

	queues []mixQueue
	heads  headWatch // slot q*chainN+c: the head of chain c of queue q
	table  [mapSlots]mixChainMapEntry
	ev     power.Events
	occ    int

	// idle[c] holds the queues whose chain c holds no instruction and
	// roomy the queues with a free entry, so allocChain finds the lowest
	// free chain a word of queues at a time.
	idle  []bitset
	roomy bitset

	candidates []*isa.Inst
}

func newMixBUFF(cfg DomainConfig, opt Options) *mixBUFF {
	chainN := cfg.Chains
	if chainN <= 0 {
		// "Unbounded" chains: an instruction always occupies an entry,
		// so entry count bounds the chains a queue can ever need.
		chainN = cfg.Entries
	}
	m := &mixBUFF{
		opt:        opt,
		cfg:        cfg,
		chainN:     chainN,
		queues:     make([]mixQueue, cfg.Queues),
		heads:      newHeadWatch(cfg.Queues * chainN),
		idle:       make([]bitset, chainN),
		roomy:      newBitset(cfg.Queues),
		candidates: make([]*isa.Inst, 0, cfg.Queues),
	}
	// One array backs every chain's set of idle queues.
	words := len(m.roomy)
	idle := make(bitset, chainN*words)
	for c := range m.idle {
		m.idle[c] = idle[c*words : (c+1)*words : (c+1)*words]
	}
	for i := range m.queues {
		m.roomy.set(i)
		for c := range m.idle {
			m.idle[c].set(i)
		}
		q := &m.queues[i]
		q.entries = make([]*isa.Inst, cfg.Entries)
		q.next = make([]int, cfg.Entries)
		q.free = make([]int, cfg.Entries)
		for e := range q.free {
			q.free[e] = e
		}
		q.chains = make([]chainState, chainN)
		for c := range q.chains {
			q.chains[c].head, q.chains[c].tail = -1, -1
		}
		q.busy = newBitset(chainN)
	}
	return m
}

func (m *mixBUFF) Name() string          { return "MixBUFF" }
func (m *mixBUFF) Occupancy() int        { return m.occ }
func (m *mixBUFF) Capacity() int         { return m.cfg.Total() }
func (m *mixBUFF) Events() *power.Events { return &m.ev }

func (m *mixBUFF) Geometry() power.Geometry {
	return power.Geometry{
		Style:       power.StyleBuff,
		Queues:      m.cfg.Queues,
		Entries:     m.cfg.Entries,
		Chains:      m.chainN,
		TagBits:     8,
		PayloadBits: 80,
		FUFanout:    m.opt.fanout(),
	}
}

// Dispatch implements the paper's placement: an instruction joins its
// predecessor's chain only if the predecessor is the last instruction of
// that chain and the queue has room; otherwise the lowest free chain
// identifier across queues is allocated (chain-major order, balancing busy
// chains per queue); otherwise dispatch stalls.
func (m *mixBUFF) Dispatch(env Env, in *isa.Inst) bool {
	m.ev.QRenameReads += uint64(in.NumSources())

	q, c := -1, -1
	if in.Src1 != isa.NoReg {
		q, c = m.appendTarget(m.table[mapSlot(in.Src1, in.Src1FP)])
	}
	// Stores chain by their address operand only (see issueFIFO.Dispatch).
	if q < 0 && in.Src2 != isa.NoReg && in.Class != isa.Store {
		q, c = m.appendTarget(m.table[mapSlot(in.Src2, in.Src2FP)])
	}
	if q < 0 {
		q, c = m.allocChain(env)
		if q < 0 {
			return false
		}
	}

	m.place(env, q, c, in)
	in.QueueID, in.ChainID = q, c
	m.occ++
	m.ev.BuffWrites++
	if in.HasDest() {
		m.table[mapSlot(in.Dest, in.DestFP)] = mixChainMapEntry{
			queue: q, chain: c, seq: in.Seq, gen: m.queues[q].chains[c].gen, valid: true,
		}
		m.ev.QRenameWrites++
	}
	return true
}

// appendTarget resolves a source register's map entry to an appendable
// (queue, chain): the mapping must be current (generation matches), the
// producer must still be the chain's last instruction, and the queue must
// have room.
func (m *mixBUFF) appendTarget(e mixChainMapEntry) (int, int) {
	if !e.valid {
		return -1, -1
	}
	q := &m.queues[e.queue]
	ch := &q.chains[e.chain]
	if ch.tail < 0 || ch.gen != e.gen || q.entries[ch.tail].Seq != e.seq {
		return -1, -1
	}
	if len(q.free) == 0 {
		return -1, -1
	}
	return e.queue, e.chain
}

// allocChain returns the lowest free chain identifier in chain-major order
// (chain 0 of queue 0, chain 0 of queue 1, ..., chain 1 of queue 0, ...),
// the paper's busy-chain balancing rule: the first chain idle in a queue
// with a free entry, found in the lowest such queue. With every queue
// full it refuses at once.
func (m *mixBUFF) allocChain(env Env) (int, int) {
	if m.roomy.empty() {
		return -1, -1
	}
	for c, idle := range m.idle {
		for wi, w := range m.roomy {
			if w &= idle[wi]; w != 0 {
				q := wi<<6 + bits.TrailingZeros64(w)
				// A fresh chain's first instruction is "considered
				// for the first time" at the next selection
				// opportunity.
				ch := &m.queues[q].chains[c]
				ch.readyAt = env.Cycle()
				ch.readySince = env.Cycle() + 1
				return q, c
			}
		}
	}
	return -1, -1
}

// place appends in to chain c of queue qi. An instruction starting a
// chain becomes its head, so the queue selects again.
func (m *mixBUFF) place(env Env, qi, c int, in *isa.Inst) {
	q := &m.queues[qi]
	fresh := q.chains[c].head < 0
	q.push(c, in)
	if len(q.free) == 0 {
		m.roomy.clear(qi)
	}
	if fresh {
		q.busy.set(c)
		m.idle[c].clear(qi)
		q.selUntil = 0
		m.heads.watch(env, qi*m.chainN+c, in)
	}
}

// code returns the 2-bit compressed latency code of a chain. With the
// FlatSelectPriority ablation, every ready chain compresses to the same
// class and selection degenerates to age order.
func (m *mixBUFF) code(ch *chainState, now int64) int {
	switch {
	case now < ch.readyAt:
		return codeNotReady
	case m.cfg.FlatSelectPriority:
		return codeDelayed
	case now <= ch.readySince:
		return codeFirstTime
	default:
		return codeDelayed
	}
}

// selectHead recomputes q's selection at cycle now: the head of minimum
// code‖age among the busy chains, kept until the first cycle a code
// changes. A not-ready chain changes at readyAt and a first-time chain
// at readySince+1; a delayed chain does not change.
func (m *mixBUFF) selectHead(env Env, q *mixQueue, now int64) {
	q.sel, q.selUntil = -1, math.MaxInt64
	var best *isa.Inst
	bestCode := codeNotReady
	for wi, w := range q.busy {
		for ; w != 0; w &= w - 1 {
			c := wi<<6 + bits.TrailingZeros64(w)
			ch := &q.chains[c]
			code := m.code(ch, now)
			switch code {
			case codeNotReady:
				q.selUntil = min(q.selUntil, ch.readyAt)
				continue
			case codeFirstTime:
				q.selUntil = min(q.selUntil, ch.readySince+1)
			}
			if head := q.entries[ch.head]; best == nil || code < bestCode ||
				(code == bestCode && env.Older(head.AgeID, best.AgeID)) {
				best, bestCode, q.sel = head, code, c
			}
		}
	}
}

// Issue selects at most one instruction per queue by minimum code‖age,
// verifies the selected instruction's operands in the ready-bit table and
// issues the survivors oldest-first up to the budget. A selected
// instruction that cannot issue keeps its entry; its chain transitions to
// the delayed code, implementing the paper's first-time priority.
func (m *mixBUFF) Issue(env Env, budget int) int {
	now := env.Cycle()
	m.candidates = m.candidates[:0]
	for qi := range m.queues {
		q := &m.queues[qi]
		held := q.held()
		if held == 0 {
			continue
		}
		// The chain latency table is read and written whole every
		// cycle, as the paper describes.
		m.ev.ChainReads++
		m.ev.ChainWrites++
		m.ev.SelectOps++
		m.ev.SelectEntries += uint64(held)

		if now >= q.selUntil {
			m.selectHead(env, q, now)
		}
		if q.sel < 0 {
			continue
		}
		best := q.entries[q.chains[q.sel].head]
		m.ev.SelRegWrites++
		// The single selected instruction consults the ready-bit
		// table (the estimation may be wrong for cross-queue or
		// cache-miss dependences).
		m.ev.RegsReadyReads += uint64(best.NumSources())
		if m.heads.ready.has(qi*m.chainN + q.sel) {
			m.candidates = append(m.candidates, best)
		}
	}

	ageSorted(env, m.candidates)
	issued := 0
	for _, in := range m.candidates {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		m.remove(env, in)
		m.ev.BuffReads++
		issued++
	}
	return issued
}

// remove pops an issued instruction, always its chain's head, and updates
// the chain: its result is usable the instruction's latency later, which
// opens the chain's first-time window, and the chain is freed
// (generation bumped) with its last instruction. Otherwise the next
// instruction becomes the head.
func (m *mixBUFF) remove(env Env, in *isa.Inst) {
	q := &m.queues[in.QueueID]
	q.pop(in.ChainID)
	q.selUntil = 0
	m.roomy.set(in.QueueID)
	m.occ--

	ch := &q.chains[in.ChainID]
	ch.readyAt = env.Cycle() + int64(latencyOf(in, m.opt.Latencies, m.opt.MemHitLat))
	ch.readySince = ch.readyAt
	slot := in.QueueID*m.chainN + in.ChainID
	if ch.head < 0 {
		ch.gen++
		q.busy.clear(in.ChainID)
		m.idle[in.ChainID].set(in.QueueID)
		m.heads.ready.clear(slot)
	} else {
		m.heads.watch(env, slot, q.entries[ch.head])
	}
}

// OnComplete wakes the chain heads waiting for the broadcast tag.
func (m *mixBUFF) OnComplete(_ Env, destFP bool, pdest int16) { m.heads.wake(destFP, pdest) }

// OnMispredictResolved clears the register-to-chain map table (the paper
// clears the equivalent table on mispredictions; KeepMapOnMispredict
// retains it for the ablation study).
func (m *mixBUFF) OnMispredictResolved() {
	if !m.cfg.KeepMapOnMispredict {
		clear(m.table[:])
	}
}
