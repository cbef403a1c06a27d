package cache

// MemoryConfig models main memory timing: the first chunk of a line fill
// arrives after FirstChunk cycles and each further ChunkBytes-wide transfer
// takes InterChunk cycles.
type MemoryConfig struct {
	FirstChunk int // cycles to first chunk (Table 1: 100)
	InterChunk int // cycles between chunks (Table 1: 2)
	ChunkBytes int // bus width in bytes (Table 1: 64)
}

// DefaultMemory returns the Table 1 main-memory timing.
func DefaultMemory() MemoryConfig {
	return MemoryConfig{FirstChunk: 100, InterChunk: 2, ChunkBytes: 64}
}

// FillLatency returns the time to fill a line of lineSize bytes.
func (m MemoryConfig) FillLatency(lineSize int) int {
	if lineSize <= m.ChunkBytes {
		return m.FirstChunk
	}
	chunks := (lineSize + m.ChunkBytes - 1) / m.ChunkBytes
	return m.FirstChunk + (chunks-1)*m.InterChunk
}

// Hierarchy ties the instruction cache, data cache, unified L2 and main
// memory together and answers whole-access latencies.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	Mem          MemoryConfig

	l2Line int

	// DPorts is the number of L1D read/write ports per cycle (Table 1: 4).
	DPorts int
}

// HierarchyConfig collects every memory-system parameter.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	Mem          MemoryConfig
	DPorts       int
}

// DefaultHierarchyConfig returns the Table 1 memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:    Config{Name: "L1I", SizeKB: 64, Assoc: 2, LineSize: 32, Latency: 1},
		L1D:    Config{Name: "L1D", SizeKB: 32, Assoc: 4, LineSize: 32, Latency: 2},
		L2:     Config{Name: "L2", SizeKB: 512, Assoc: 4, LineSize: 64, Latency: 10},
		Mem:    DefaultMemory(),
		DPorts: 4,
	}
}

// NewHierarchy builds the hierarchy from its configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:    New(cfg.L1I),
		L1D:    New(cfg.L1D),
		L2:     New(cfg.L2),
		Mem:    cfg.Mem,
		l2Line: cfg.L2.LineSize,
		DPorts: cfg.DPorts,
	}
}

// Release hands the three caches' line arrays to the next hierarchy
// built. The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	h.L1I.Release()
	h.L1D.Release()
	h.L2.Release()
}

// InstFetch returns the latency of fetching the instruction block at addr.
func (h *Hierarchy) InstFetch(addr uint64) int {
	hit, _ := h.L1I.Access(addr, false)
	lat := h.L1I.Latency()
	if hit {
		return lat
	}
	return lat + h.l2Access(addr, false)
}

// DataAccess returns the latency of a load (write=false) or the
// address-to-completion latency of a store (write=true) at addr.
func (h *Hierarchy) DataAccess(addr uint64, write bool) int {
	hit, wb := h.L1D.Access(addr, write)
	lat := h.L1D.Latency()
	if hit {
		return lat
	}
	if wb {
		// Dirty eviction: the writeback goes to L2; model its
		// occupancy as one extra L2 access worth of latency folded
		// into the miss (no bandwidth model below ports).
		h.L2.Access(addr, true)
	}
	return lat + h.l2Access(addr, write)
}

func (h *Hierarchy) l2Access(addr uint64, write bool) int {
	hit, _ := h.L2.Access(addr, write)
	lat := h.L2.Latency()
	if hit {
		return lat
	}
	return lat + h.Mem.FillLatency(h.l2Line)
}
