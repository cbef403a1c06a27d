package core

import "distiq/internal/isa"

// regTag numbers a physical register across both register files: the
// result tag a broadcast drives.
func regTag(fp bool, preg int16) uint16 {
	return uint16(domIdx(fp)*isa.NumPhysicalRegs) + uint16(preg)
}

// bitset is a set of small non-negative integers, one bit each, sized at
// construction. Members are visited in increasing order by ranging over
// the words and peeling their lowest set bits.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// waitLists threads waiting source operands onto one doubly linked list
// per result tag, so a broadcast visits only the operands waiting for it.
// Node 2*s+k is source k (0: Src1, 1: Src2) of slot s.
type waitLists struct {
	first      [2 * isa.NumPhysicalRegs]int32 // first node per tag; -1 when none
	next, prev []int32
}

func newWaitLists(slots int) waitLists {
	w := waitLists{next: make([]int32, 2*slots), prev: make([]int32, 2*slots)}
	for t := range w.first {
		w.first[t] = -1
	}
	return w
}

// push links node n onto tag t's list.
func (w *waitLists) push(t uint16, n int32) {
	f := w.first[t]
	w.next[n], w.prev[n] = f, -1
	if f >= 0 {
		w.prev[f] = n
	}
	w.first[t] = n
}

// unlink removes node n from tag t's list.
func (w *waitLists) unlink(t uint16, n int32) {
	p, x := w.prev[n], w.next[n]
	if p >= 0 {
		w.next[p] = x
	} else {
		w.first[t] = x
	}
	if x >= 0 {
		w.prev[x] = p
	}
}

// take empties tag t's list and returns its first node, or -1; the
// others follow through next.
func (w *waitLists) take(t uint16) int32 {
	n := w.first[t]
	w.first[t] = -1
	return n
}

// headWatch tracks the readiness of queue heads from result-tag
// broadcasts, as the heads' ready bits do in hardware. Each slot is a
// FIFO head or a MixBUFF chain head. When an instruction becomes a slot's
// head, its blocking sources (Src1, and Src2 unless it is a store) are
// read once; each broadcast then wakes only its waiters. A head leaves
// its slot only by issuing, when nothing waits, so no waiter is ever
// unlinked.
type headWatch struct {
	ready bitset  // slots whose head has no blocking source unready
	wait  []uint8 // blocking sources still unready, per slot
	lists waitLists
}

func newHeadWatch(slots int) headWatch {
	return headWatch{ready: newBitset(slots), wait: make([]uint8, slots), lists: newWaitLists(slots)}
}

// watch makes in the head of slot s.
func (h *headWatch) watch(env Env, s int, in *isa.Inst) {
	w := h.await(env, s, 0, in.Src1FP, in.PSrc1)
	if in.Class != isa.Store {
		w += h.await(env, s, 1, in.Src2FP, in.PSrc2)
	}
	h.wait[s] = w
	if w == 0 {
		h.ready.set(s)
	} else {
		h.ready.clear(s)
	}
}

// await links source k of slot s to its tag's waiters if it is unready,
// reporting how many sources it linked.
func (h *headWatch) await(env Env, s int, k int32, fp bool, preg int16) uint8 {
	if preg == isa.NoReg || env.OperandReady(fp, preg) {
		return 0
	}
	h.lists.push(regTag(fp, preg), int32(2*s)+k)
	return 1
}

// wake delivers the broadcast of physical register preg of the register
// file fp selects.
func (h *headWatch) wake(fp bool, preg int16) {
	for n := h.lists.take(regTag(fp, preg)); n >= 0; n = h.lists.next[n] {
		s := n >> 1
		if h.wait[s]--; h.wait[s] == 0 {
			h.ready.set(int(s))
		}
	}
}
