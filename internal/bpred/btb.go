package bpred

import "sync"

// BTB is a set-associative branch target buffer with true-LRU replacement.
// Table 1 specifies 2048 entries, 4-way. A BTB miss on a taken branch is a
// misfetch: the target is unknown at fetch, so the front end redirects
// after decode, modeled as a misprediction by the fetch stage.
type BTB struct {
	sets  int
	assoc int
	btbEntries
	Hits   uint64
	Misses uint64
}

// btbEntries are a BTB's per-entry arrays, sets*assoc long.
type btbEntries struct {
	tags  []uint64 // 0 = invalid (PCs are never 0)
	targs []uint64
	lru   []uint8 // per-way LRU rank within the set, 0 = MRU
}

// btbPool recycles released BTBs' entry arrays.
var btbPool sync.Pool

// newBTBEntries returns entry arrays for n entries of assoc ways in their
// fresh state: every tag invalid, every target cleared and the LRU ranks
// of each set 0..assoc-1. It reuses released arrays large enough.
func newBTBEntries(n, assoc int) btbEntries {
	var e btbEntries
	if r, ok := btbPool.Get().(*btbEntries); ok && cap(r.tags) >= n {
		e = btbEntries{tags: r.tags[:n], targs: r.targs[:n], lru: r.lru[:n]}
		clear(e.tags)
		clear(e.targs)
	} else {
		e = btbEntries{tags: make([]uint64, n), targs: make([]uint64, n), lru: make([]uint8, n)}
	}
	for i := range e.lru {
		e.lru[i] = uint8(i % assoc)
	}
	return e
}

// Release hands the BTB's entry arrays to the next BTB built, which
// resets them. The BTB must not be used afterwards.
func (b *BTB) Release() {
	e := b.btbEntries
	b.btbEntries = btbEntries{}
	btbPool.Put(&e)
}

// NewBTB returns a BTB with the given total entries and associativity;
// entries must be divisible by assoc and entries/assoc a power of two.
func NewBTB(entries, assoc int) *BTB {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic("bpred: bad BTB geometry")
	}
	sets := entries / assoc
	if sets&(sets-1) != 0 {
		panic("bpred: BTB set count must be a power of two")
	}
	return &BTB{sets: sets, assoc: assoc, btbEntries: newBTBEntries(entries, assoc)}
}

// NewDefaultBTB returns the paper's 2048-entry 4-way BTB.
func NewDefaultBTB() *BTB { return NewBTB(2048, 4) }

func (b *BTB) set(pc uint64) int { return int((pc >> 2) & uint64(b.sets-1)) }

// Lookup returns the stored target for pc and whether it was present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	base := b.set(pc) * b.assoc
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc {
			b.touch(base, w)
			b.Hits++
			return b.targs[base+w], true
		}
	}
	b.Misses++
	return 0, false
}

// Insert records the target for pc, evicting the LRU way on conflict.
func (b *BTB) Insert(pc, target uint64) {
	base := b.set(pc) * b.assoc
	victim := 0
	for w := 0; w < b.assoc; w++ {
		if b.tags[base+w] == pc {
			b.targs[base+w] = target
			b.touch(base, w)
			return
		}
		if b.lru[base+w] > b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = pc
	b.targs[base+victim] = target
	b.touch(base, victim)
}

// touch marks way w as most recently used within its set.
func (b *BTB) touch(base, w int) {
	old := b.lru[base+w]
	for i := 0; i < b.assoc; i++ {
		if b.lru[base+i] < old {
			b.lru[base+i]++
		}
	}
	b.lru[base+w] = 0
}
