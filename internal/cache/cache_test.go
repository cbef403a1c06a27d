package cache

import (
	"testing"
	"testing/quick"

	"distiq/internal/rng"
)

func small() *Cache {
	return New(Config{Name: "t", SizeKB: 1, Assoc: 2, LineSize: 32, Latency: 2})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if hit, _ := c.Access(0x101f, false); !hit {
		t.Fatal("same-line access missed")
	}
	// Next line.
	if hit, _ := c.Access(0x1020, false); hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := small() // 1KB/32B = 32 lines, 2-way => 16 sets; set stride 512B
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU, b is LRU
	c.Access(d, false) // evicts b
	if hit, _ := c.Access(a, false); !hit {
		t.Fatal("MRU line evicted")
	}
	if hit, _ := c.Access(b, false); hit {
		t.Fatal("LRU line survived")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.Access(0x0000, true) // dirty
	c.Access(0x0200, false)
	// Touch 0x0200 so 0x0000 is LRU... wait, 0x0000 was first so it is LRU.
	_, wb := c.Access(0x0400, false) // evicts dirty 0x0000
	if !wb {
		t.Fatal("evicting a dirty line did not report writeback")
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks)
	}
	// Clean eviction must not report writeback.
	_, wb = c.Access(0x0600, false)
	if wb {
		t.Fatal("clean eviction reported writeback")
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	c := small()
	if c.Lookup(0x1000) {
		t.Fatal("lookup hit on empty cache")
	}
	if c.Lookup(0x1000) {
		t.Fatal("lookup allocated the line")
	}
	c.Access(0x1000, false)
	if !c.Lookup(0x1000) {
		t.Fatal("lookup missed present line")
	}
	if c.Accesses != 1 {
		t.Fatalf("Lookup changed access count: %d", c.Accesses)
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	if c.MissRate() != 0 {
		t.Fatal("miss rate of untouched cache != 0")
	}
	c.Access(0x0, false)
	c.Access(0x0, false)
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to the cache size, accessed repeatedly,
	// must only miss on the first pass.
	c := New(Config{Name: "t", SizeKB: 4, Assoc: 4, LineSize: 32, Latency: 1})
	lines := 4 * 1024 / 32
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*32), false)
		}
	}
	if c.Misses != uint64(lines) {
		t.Fatalf("misses = %d, want %d (cold only)", c.Misses, lines)
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{SizeKB: 0, Assoc: 2, LineSize: 32},
		{SizeKB: 1, Assoc: 0, LineSize: 32},
		{SizeKB: 1, Assoc: 2, LineSize: 33},
		{SizeKB: 1, Assoc: 7, LineSize: 32},
		{SizeKB: 3, Assoc: 2, LineSize: 32}, // 96 lines / 2 = 48 sets, not 2^n
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPropertyPresenceAfterAccess(t *testing.T) {
	// Property: immediately after Access(addr), Lookup(addr) is true.
	c := New(Config{Name: "q", SizeKB: 2, Assoc: 2, LineSize: 64, Latency: 1})
	if err := quick.Check(func(addr uint64, write bool) bool {
		c.Access(addr, write)
		return c.Lookup(addr)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySetIsolation(t *testing.T) {
	// Accessing addresses in one set never evicts lines in another set.
	c := small()            // 16 sets, stride 512
	c.Access(0x0020, false) // set 1
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		// Random addresses in set 0 only.
		c.Access(uint64(r.Intn(1<<20))&^uint64(0x1ff), false)
	}
	if !c.Lookup(0x0020) {
		t.Fatal("traffic in set 0 evicted a line in set 1")
	}
}

func TestMemoryFillLatency(t *testing.T) {
	m := DefaultMemory()
	if got := m.FillLatency(64); got != 100 {
		t.Fatalf("64B fill = %d, want 100", got)
	}
	if got := m.FillLatency(128); got != 102 {
		t.Fatalf("128B fill = %d, want 102", got)
	}
	if got := m.FillLatency(32); got != 100 {
		t.Fatalf("32B fill = %d, want 100", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold load: L1D(2) + L2(10) + mem(100) = 112.
	if lat := h.DataAccess(0x10000, false); lat != 112 {
		t.Fatalf("cold load latency = %d, want 112", lat)
	}
	// Now in L1D: 2.
	if lat := h.DataAccess(0x10000, false); lat != 2 {
		t.Fatalf("L1D hit latency = %d, want 2", lat)
	}
	// Evicting nothing; a different address in the same L2 line but a
	// different L1 line: L1D miss, L2 hit = 2 + 10.
	if lat := h.DataAccess(0x10020, false); lat != 12 {
		t.Fatalf("L2 hit latency = %d, want 12", lat)
	}
	// Instruction fetch cold: L1I(1) + L2(10) + mem(100) = 111.
	if lat := h.InstFetch(0x90000); lat != 111 {
		t.Fatalf("cold ifetch = %d, want 111", lat)
	}
	if lat := h.InstFetch(0x90000); lat != 1 {
		t.Fatalf("warm ifetch = %d, want 1", lat)
	}
}

func TestHierarchyDefaultGeometry(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.L1D.SizeKB != 32 || cfg.L1D.Assoc != 4 || cfg.L1D.Latency != 2 {
		t.Error("L1D geometry does not match Table 1")
	}
	if cfg.L1I.SizeKB != 64 || cfg.L1I.Assoc != 2 || cfg.L1I.Latency != 1 {
		t.Error("L1I geometry does not match Table 1")
	}
	if cfg.L2.SizeKB != 512 || cfg.L2.Assoc != 4 || cfg.L2.Latency != 10 {
		t.Error("L2 geometry does not match Table 1")
	}
	if cfg.DPorts != 4 {
		t.Error("DPorts != 4")
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{Name: "b", SizeKB: 32, Assoc: 4, LineSize: 32, Latency: 2})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i%4 == 0)
	}
}

// TestReleasedLinesAreFresh pins Release's contract: a cache built on
// line arrays another cache released, here of twice the associativity,
// starts with every tag invalid, every line clean, the LRU ranks of a
// fresh cache and zero counters. sync.Pool may drop a released object
// (it does so at random under -race), so the test releases until one is
// reused.
func TestReleasedLinesAreFresh(t *testing.T) {
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		old := New(Config{Name: "old", SizeKB: 32, Assoc: 4, LineSize: 32, Latency: 2})
		for a := uint64(0); a < 64<<10; a += 32 {
			old.Access(a, a%64 == 0)
		}
		tags := &old.tags[0]
		old.Release()
		c := New(Config{Name: "new", SizeKB: 32, Assoc: 2, LineSize: 32, Latency: 2})
		reused = &c.tags[0] == tags
		if len(c.tags) != 1024 || len(c.lru) != 1024 || len(c.dirty) != 1024 {
			t.Fatalf("line arrays of %d/%d/%d, want 1024", len(c.tags), len(c.lru), len(c.dirty))
		}
		for i := range c.tags {
			if c.tags[i] != 0 || c.dirty[i] || c.lru[i] != uint8(i%2) {
				t.Fatalf("line %d: tag %#x dirty %v lru %d, want 0 false %d", i, c.tags[i], c.dirty[i], c.lru[i], i%2)
			}
		}
		if c.Accesses != 0 || c.Misses != 0 || c.Writebacks != 0 {
			t.Fatalf("counters %d/%d/%d, want zero", c.Accesses, c.Misses, c.Writebacks)
		}
		c.Release()
	}
	if !reused {
		t.Fatal("no cache reused released line arrays in 100 tries")
	}
}
