// Package cache implements the memory hierarchy of the Table 1
// configuration: a 64KB 2-way L1 instruction cache (32-byte lines, 1
// cycle), a 32KB 4-way L1 data cache (32-byte lines, 2 cycles, 4 R/W
// ports), a unified 512KB 4-way L2 (64-byte lines, 10 cycles) and a main
// memory delivering the first chunk in 100 cycles and subsequent 8-byte
// chunks every 2 cycles over a 64-byte-wide bus.
//
// Caches are set-associative with true-LRU replacement and are
// write-allocate. Timing is returned as a whole-access latency; the
// simulator does not model bandwidth contention below the L1 data-cache
// port limit, matching the abstraction level of the paper's SimpleScalar
// baseline.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Cache is one level of set-associative cache.
type Cache struct {
	name     string
	sets     int
	assoc    int
	lineBits uint
	latency  int

	lines

	// Accesses, Misses and Writebacks are statistics counters.
	Accesses, Misses, Writebacks uint64
}

// lines are a cache's per-line arrays, sets*assoc long.
type lines struct {
	tags  []uint64 // 0 = invalid (tag stored with +1 bias)
	lru   []uint8  // per-way LRU rank within the set, 0 = MRU
	dirty []bool
}

// linePools recycle released caches' line arrays, one pool per size class
// (the bit length of the line count), so the levels of a hierarchy do not
// trade arrays with each other.
var linePools [bits.UintSize + 1]sync.Pool

// newLines returns line arrays for n lines of assoc ways in their fresh
// state: every tag invalid, every line clean and the LRU ranks of each
// set 0..assoc-1. It reuses released arrays when their size class holds
// ones large enough.
func newLines(n, assoc int) lines {
	var l lines
	if r, ok := linePools[bits.Len(uint(n))].Get().(*lines); ok && cap(r.tags) >= n {
		l = lines{tags: r.tags[:n], lru: r.lru[:n], dirty: r.dirty[:n]}
		clear(l.tags)
		clear(l.dirty)
	} else {
		l = lines{tags: make([]uint64, n), lru: make([]uint8, n), dirty: make([]bool, n)}
	}
	for i := range l.lru {
		l.lru[i] = uint8(i % assoc)
	}
	return l
}

// Release hands the cache's line arrays to the next cache built with a
// line count of the same size class, which resets them. The cache must
// not be used afterwards.
func (c *Cache) Release() {
	l := c.lines
	c.lines = lines{}
	linePools[bits.Len(uint(len(l.tags)))].Put(&l)
}

// Config describes one cache level.
type Config struct {
	Name     string
	SizeKB   int // total capacity in KiB
	Assoc    int
	LineSize int // bytes, power of two
	Latency  int // cycles for a hit
}

// New builds a cache from its configuration. It panics on a geometry that
// cannot be realized (non-power-of-two sets or line size).
func New(cfg Config) *Cache {
	if cfg.SizeKB <= 0 || cfg.Assoc <= 0 || cfg.LineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	n := cfg.SizeKB * 1024 / cfg.LineSize
	if n%cfg.Assoc != 0 {
		panic("cache: lines not divisible by associativity")
	}
	sets := n / cfg.Assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets is not a power of two", cfg.Name, sets))
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	return &Cache{
		name:     cfg.Name,
		sets:     sets,
		assoc:    cfg.Assoc,
		lineBits: lineBits,
		latency:  cfg.Latency,
		lines:    newLines(n, cfg.Assoc),
	}
}

// Name returns the configured name of the cache.
func (c *Cache) Name() string { return c.name }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() int { return c.latency }

func (c *Cache) set(addr uint64) int {
	return int((addr >> c.lineBits) & uint64(c.sets-1))
}

func (c *Cache) tag(addr uint64) uint64 {
	return (addr >> c.lineBits) + 1 // +1 so 0 means invalid
}

// Lookup probes the cache without modifying anything. It reports whether
// the line holding addr is present.
func (c *Cache) Lookup(addr uint64) bool {
	base := c.set(addr) * c.assoc
	t := c.tag(addr)
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == t {
			return true
		}
	}
	return false
}

// Access performs a read or write of addr, updating LRU state and
// allocating the line on a miss. It returns whether the access hit and,
// on a miss, whether a dirty line was evicted (requiring a writeback).
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.Accesses++
	base := c.set(addr) * c.assoc
	t := c.tag(addr)
	victim := 0
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == t {
			c.touch(base, w)
			if write {
				c.dirty[base+w] = true
			}
			return true, false
		}
		if c.lru[base+w] > c.lru[base+victim] {
			victim = w
		}
	}
	c.Misses++
	writeback = c.dirty[base+victim] && c.tags[base+victim] != 0
	if writeback {
		c.Writebacks++
	}
	c.tags[base+victim] = t
	c.dirty[base+victim] = write
	c.touch(base, victim)
	return false, writeback
}

func (c *Cache) touch(base, w int) {
	old := c.lru[base+w]
	for i := 0; i < c.assoc; i++ {
		if c.lru[base+i] < old {
			c.lru[base+i]++
		}
	}
	c.lru[base+w] = 0
}

// MissRate returns Misses/Accesses (0 when never accessed).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
