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
	walk
	model Model
	r     *rng.Source
}

// walk is a position in a model's dynamic stream: the static instruction
// it has reached and the per-site counters that decide back edges (trip
// counts), periodic branches and streaming addresses. Everything else a
// step decides comes from its draws, so two walks of one program fed the
// same draws produce the same stream: a Generator draws from the model's
// random source, and a StreamReader reads back the draws a Generator
// recorded.
type walk struct {
	prog *program

	idx int    // current static instruction index
	seq uint64 // dynamic sequence number

	iters    []int    // per back-edge site: iterations of the current trip
	memCount []uint64 // per memory site: references so far
	brCount  []uint64 // per branch site: executions so far (periodic sites)
}

// draws supplies a walk's random outcomes, in stream order.
type draws interface {
	// below reports whether a uniform draw from [0, 1) falls below p.
	below(p float64) bool
	// offset returns the 8-byte-aligned offset of a non-streaming
	// reference: inside the site's hot region (hotMask) for most
	// references, anywhere in its working set (wsMask) for the rest.
	offset(hotMask, wsMask uint64) uint64
}

// newWalk returns a walk positioned at the first instruction of p.
func newWalk(p *program) walk {
	return walk{
		prog:     p,
		iters:    make([]int, len(p.brSites)),
		memCount: make([]uint64, len(p.memSites)),
		brCount:  make([]uint64, len(p.brSites)),
	}
}

// NewGenerator builds the static program for m and returns a generator
// positioned at its first instruction. It panics if the model is invalid;
// use m.Validate to check first.
func NewGenerator(m Model) *Generator {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &Generator{walk: newWalk(buildProgram(m)), model: m, r: rng.New(m.Seed ^ 0x9e37)}
}

// Model returns the benchmark model the generator was built from.
func (g *Generator) Model() Model { return g.model }

// Clone returns an independent generator positioned exactly where g is:
// both produce identical streams from the current position onward. The
// immutable static program is shared; only the per-site dynamic state is
// copied. Stream readers fork this way when they run past a stream's
// recording cap.
func (g *Generator) Clone() *Generator {
	w := g.walk
	w.iters = append([]int(nil), g.iters...)
	w.memCount = append([]uint64(nil), g.memCount...)
	w.brCount = append([]uint64(nil), g.brCount...)
	return &Generator{walk: w, model: g.model, r: g.r.Clone()}
}

// StaticSize returns the number of static instructions in the program.
func (g *Generator) StaticSize() int { return len(g.prog.insts) }

// Next fills in the architectural fields of in with the next dynamic
// instruction and resets its microarchitectural fields.
func (g *Generator) Next(in *isa.Inst) { g.next(in, g) }

// below implements draws from the model's random source.
func (g *Generator) below(p float64) bool { return g.r.Float64() < p }

// offset implements draws from the model's random source. Non-streaming
// references mostly fall in the site's hot region (real pointer/table
// code hits L1 for the vast majority of accesses), the rest anywhere in
// the working set.
func (g *Generator) offset(hotMask, wsMask uint64) uint64 {
	if g.r.Float64() < 0.92 {
		return (g.r.Uint64() & hotMask) &^ 7
	}
	return (g.r.Uint64() & wsMask) &^ 7
}

// next fills in with the walk's next instruction, taking its random
// outcomes from d. Generator.Next and StreamReader.Next both build their
// instructions here, so replay cannot drift from generation.
func (w *walk) next(in *isa.Inst, d draws) {
	idx, seq := w.idx, w.seq
	addr, taken := w.step(d)
	w.prog.inst(in, seq, idx, addr, taken)
}

// step advances the walk by one instruction: it returns the current
// static instruction's effective address (memory references) and
// direction (branches), and moves to its successor.
func (w *walk) step(d draws) (addr uint64, taken bool) {
	si := &w.prog.insts[w.idx]
	next := w.idx + 1
	if si.memSite >= 0 {
		addr = w.address(si.memSite, d)
	}
	if si.brSite >= 0 {
		taken = w.outcome(si, d)
		if taken {
			next = si.takenTarget
		}
	}
	if next >= len(w.prog.insts) {
		next = 0
	}
	w.idx = next
	w.seq++
	return addr, taken
}

// inst fills in with the dynamic instance, at stream position seq, of
// static instruction idx, given its effective address (0 unless idx is a
// memory reference) and direction (false unless idx is a branch), and
// resets in's microarchitectural fields. Every other architectural field
// is static.
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
func (w *walk) address(site int, d draws) uint64 {
	ms := &w.prog.memSites[site]
	n := w.memCount[site]
	w.memCount[site]++
	if ms.stream {
		return ms.base + (n*ms.stride)&ms.wsMask
	}
	return ms.base + d.offset(ms.hotMask, ms.wsMask)
}

// outcome decides a branch's architectural direction.
func (w *walk) outcome(si *staticInst, d draws) bool {
	s := &w.prog.brSites[si.brSite]
	n := w.brCount[si.brSite]
	w.brCount[si.brSite]++
	if si.backEdge {
		w.iters[si.brSite]++
		if w.iters[si.brSite] >= s.trip {
			w.iters[si.brSite] = 0
			return false // exit the loop
		}
		return true
	}
	if p := uint64(s.period); p > 0 {
		base := n%p < p-1
		// Entropy occasionally flips even periodic sites.
		if s.entropy > 0 && d.below(s.entropy/2) {
			return !base
		}
		return base
	}
	// The site keeps its strong bias; entropy flips individual outcomes,
	// so the best achievable prediction accuracy at the site is
	// bias*(1-entropy) + (1-bias)*entropy.
	pTaken := s.bias*(1-s.entropy) + (1-s.bias)*s.entropy
	return d.below(pTaken)
}
