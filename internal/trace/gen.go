package trace

import (
	"distiq/internal/isa"
	"distiq/internal/rng"
)

// codeBase is the address of the first static instruction.
const codeBase = 0x0040_0000

// Generator walks a model's static program and produces the dynamic
// instruction stream. It is deterministic in the model seed: two
// generators built from the same model produce identical streams, so every
// scheme is evaluated on exactly the same trace.
type Generator struct {
	model Model
	prog  *program
	r     *rng.Source

	idx int    // current static instruction index
	seq uint64 // dynamic sequence number

	// Per back-edge-site iteration counters (trip-count bookkeeping).
	iters []int
	// Per memory-site stream positions.
	memCount []uint64
	// Per branch-site dynamic execution counts (drives periodic sites).
	brCount []uint64
	// Per branch-site period (0 = biased-random site). Derived once
	// from the site's entropy/bias at generator construction.
	period     []uint16
	periodHigh []uint16
}

// NewGenerator builds the static program for m and returns a generator
// positioned at its first instruction. It panics if the model is invalid;
// use m.Validate to check first.
func NewGenerator(m Model) *Generator {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	p := buildProgram(m)
	g := &Generator{
		model:      m,
		prog:       p,
		r:          rng.New(m.Seed ^ 0x9e37),
		iters:      make([]int, len(p.brSites)),
		memCount:   make([]uint64, len(p.memSites)),
		brCount:    make([]uint64, len(p.brSites)),
		period:     make([]uint16, len(p.brSites)),
		periodHigh: make([]uint16, len(p.brSites)),
	}
	// A minority of conditional sites follow a long, strongly biased
	// periodic pattern (e.g. the last element of a small inner
	// structure). Because outcomes at other sites are independent, a
	// global-history predictor cannot learn short balanced patterns, so
	// only patterns that are also learnable as a bias are used.
	pr := rng.New(m.Seed ^ 0x51be)
	for i, s := range p.brSites {
		if s.bias >= 1.0 { // back edge: driven by trip counts
			continue
		}
		if pr.Float64() < 0.2*(1-s.entropy) {
			g.period[i] = uint16(6 + pr.Intn(3))
			g.periodHigh[i] = g.period[i] - 1
		}
	}
	return g
}

// Model returns the benchmark model the generator was built from.
func (g *Generator) Model() Model { return g.model }

// Clone returns an independent generator positioned exactly where g is:
// both produce identical streams from the current position onward. The
// immutable static program is shared; only the per-site dynamic state is
// copied. Stream readers fork this way when they run past a stream's
// recording cap.
func (g *Generator) Clone() *Generator {
	c := &Generator{
		model:      g.model,
		prog:       g.prog, // immutable after construction
		r:          g.r.Clone(),
		idx:        g.idx,
		seq:        g.seq,
		iters:      append([]int(nil), g.iters...),
		memCount:   append([]uint64(nil), g.memCount...),
		brCount:    append([]uint64(nil), g.brCount...),
		period:     g.period,     // immutable after construction
		periodHigh: g.periodHigh, // immutable after construction
	}
	return c
}

// StaticSize returns the number of static instructions in the program.
func (g *Generator) StaticSize() int { return len(g.prog.insts) }

// Next fills in the architectural fields of in with the next dynamic
// instruction and resets its microarchitectural fields.
func (g *Generator) Next(in *isa.Inst) {
	idx, seq := g.idx, g.seq
	addr, taken := g.step()
	g.prog.inst(in, seq, idx, addr, taken)
}

// step advances the walk by one instruction: it returns the current
// static instruction's effective address (memory references) and
// direction (branches), and moves to its successor.
func (g *Generator) step() (addr uint64, taken bool) {
	si := &g.prog.insts[g.idx]
	next := g.idx + 1
	if si.memSite >= 0 {
		addr = g.address(si.memSite)
	}
	if si.brSite >= 0 {
		taken = g.outcome(si)
		if taken {
			next = si.takenTarget
		}
	}
	if next >= len(g.prog.insts) {
		next = 0
	}
	g.idx = next
	g.seq++
	return addr, taken
}

// inst fills in with the dynamic instance, at stream position seq, of
// static instruction idx, given its effective address (0 unless idx is a
// memory reference) and direction (false unless idx is a branch), and
// resets in's microarchitectural fields. Every other architectural field
// is static. Generator.Next and StreamReader.Next both build their
// instructions here, so replay cannot drift from generation.
func (p *program) inst(in *isa.Inst, seq uint64, idx int, addr uint64, taken bool) {
	si := &p.insts[idx]
	in.Seq = seq
	in.PC = codeBase + uint64(idx)*4
	in.Class = si.class
	in.Src1, in.Src1FP = si.src1, si.src1FP
	in.Src2, in.Src2FP = si.src2, si.src2FP
	in.Dest, in.DestFP = si.dest, si.destFP
	in.Addr, in.Taken, in.Target = addr, taken, 0
	if si.brSite >= 0 {
		next := idx + 1
		if taken {
			next = si.takenTarget
		}
		in.Target = codeBase + uint64(next)*4
	}
	in.ResetMicro()
}

// address produces the next effective address for a memory site.
func (g *Generator) address(site int) uint64 {
	ms := &g.prog.memSites[site]
	n := g.memCount[site]
	g.memCount[site]++
	if ms.stream {
		return ms.base + (n*ms.stride)&ms.wsMask
	}
	// Non-streaming references: most fall in the site's hot region
	// (real pointer/table code hits L1 for the vast majority of
	// accesses), the rest anywhere in the working set.
	if g.r.Float64() < 0.92 {
		return ms.base + (g.r.Uint64()&ms.hotMask)&^7
	}
	return ms.base + (g.r.Uint64()&ms.wsMask)&^7
}

// outcome decides a branch's architectural direction.
func (g *Generator) outcome(si *staticInst) bool {
	s := &g.prog.brSites[si.brSite]
	n := g.brCount[si.brSite]
	g.brCount[si.brSite]++
	if si.backEdge {
		trip := g.model.Loops[s.loop].TripCount
		g.iters[si.brSite]++
		if g.iters[si.brSite] >= trip {
			g.iters[si.brSite] = 0
			return false // exit the loop
		}
		return true
	}
	if p := g.period[si.brSite]; p > 0 {
		base := n%uint64(p) < uint64(g.periodHigh[si.brSite])
		// Entropy occasionally flips even periodic sites.
		if s.entropy > 0 && g.r.Float64() < s.entropy/2 {
			return !base
		}
		return base
	}
	// The site keeps its strong bias; entropy flips individual outcomes,
	// so the best achievable prediction accuracy at the site is
	// bias*(1-entropy) + (1-bias)*entropy.
	pTaken := s.bias*(1-s.entropy) + (1-s.bias)*s.entropy
	return g.r.Float64() < pTaken
}
