// Package trace synthesizes dynamic instruction streams that stand in for
// the SPEC2000 benchmarks used by the paper (which require the Alpha
// binaries, ref inputs and a SimpleScalar front end).
//
// Each benchmark is modeled as a small set of loop nests. A loop body is
// built from parallel dependence chains: a chain optionally starts at a
// load, continues through a configurable number of dependent ALU
// operations, and optionally ends at a store. Chains from the same
// iteration are interleaved in program order (as a scheduling compiler
// would emit them) and successive iterations are independent unless the
// loop declares loop-carried chains. This construction reproduces the
// property the paper's study hinges on: integer codes have narrow data
// dependence graphs with short-latency operations, while floating-point
// codes have wide DDGs with long-latency operations, so the number of
// simultaneously live chains inside the instruction window differs by an
// order of magnitude between the two suites.
//
// Branch outcomes are generated per static site from a bias/entropy model
// and the loop back edge, so a real hybrid predictor sees realistic
// mispredict rates. Memory addresses come from per-site streams (strided
// array walks or uniform references inside a working set), so real caches
// see realistic miss rates.
package trace

import (
	"fmt"

	"distiq/internal/isa"
	"distiq/internal/rng"
)

// Suite identifies the benchmark suite a model belongs to.
type Suite uint8

const (
	// SuiteInt marks SPECINT2000 stand-ins.
	SuiteInt Suite = iota
	// SuiteFP marks SPECFP2000 stand-ins.
	SuiteFP
)

// String returns "SPECINT" or "SPECFP".
func (s Suite) String() string {
	if s == SuiteInt {
		return "SPECINT"
	}
	return "SPECFP"
}

// LoopSpec describes one loop nest of a benchmark model.
type LoopSpec struct {
	// IntChains and FPChains are the number of parallel dependence
	// chains of each domain created per iteration; FPChainLen and
	// IntChainLen are the number of ALU operations per chain.
	IntChains, FPChains     int
	IntChainLen, FPChainLen int

	// LoadHead is the probability a chain begins with a load feeding
	// its first operation; StoreTail the probability it ends at a store.
	LoadHead, StoreTail float64

	// CrossDep is the probability an operation takes its second operand
	// from a different chain of the same iteration.
	CrossDep float64

	// LoopCarried is the fraction of chains whose first operation reads
	// the previous iteration's result (serializing across iterations,
	// e.g. pointer chasing or reductions).
	LoopCarried float64

	// Operation class mixes within a chain.
	IntMulFrac, IntDivFrac float64 // among integer chain ops
	FPMulFrac, FPDivFrac   float64 // among FP chain ops

	// Interleave is the probability that emission switches to a
	// different chain after each instruction: integer codes are mostly
	// contiguous (short dependence distances), FP codes are aggressively
	// interleaved (modulo scheduling).
	Interleave float64

	// CondBranches is the number of data-dependent conditional branches
	// sprinkled through the body (besides the back edge); each guards a
	// small skippable segment. BranchEntropy in [0,0.5] sets how
	// unpredictable their outcomes are (0 = fully biased and
	// learnable, 0.5 = coin flip).
	CondBranches  int
	BranchEntropy float64

	// TripCount is the number of iterations executed per entry into the
	// loop before control moves to the next loop of the model.
	TripCount int

	// Memory behaviour: each static memory site walks its own array
	// with the given stride (StreamFrac of sites) or references a
	// uniformly random location in a working set of WorkingSetKB
	// (the rest of the sites).
	WorkingSetKB int
	StreamFrac   float64
	StrideBytes  int

	// Copies lays out this many identical copies of the body at
	// distinct addresses, increasing the instruction footprint (large
	// code benchmarks such as gcc).
	Copies int
}

// Model is a complete benchmark description.
type Model struct {
	Name  string
	Suite Suite
	Seed  uint64
	Loops []LoopSpec
}

// Validate checks model parameters for consistency.
func (m Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("trace: model has no name")
	}
	if len(m.Loops) == 0 {
		return fmt.Errorf("trace: model %s has no loops", m.Name)
	}
	for i, l := range m.Loops {
		if l.IntChains < 0 || l.FPChains < 0 || l.IntChains+l.FPChains == 0 {
			return fmt.Errorf("trace: %s loop %d has no chains", m.Name, i)
		}
		if l.IntChains > 0 && l.IntChainLen <= 0 {
			return fmt.Errorf("trace: %s loop %d int chain length", m.Name, i)
		}
		if l.FPChains > 0 && l.FPChainLen <= 0 {
			return fmt.Errorf("trace: %s loop %d fp chain length", m.Name, i)
		}
		if l.FPChains > isa.NumLogicalRegs-2 || l.IntChains > isa.NumLogicalRegs-4 {
			return fmt.Errorf("trace: %s loop %d has more chains than registers", m.Name, i)
		}
		if l.TripCount <= 0 {
			return fmt.Errorf("trace: %s loop %d trip count", m.Name, i)
		}
		if l.WorkingSetKB <= 0 && (l.LoadHead > 0 || l.StoreTail > 0) {
			return fmt.Errorf("trace: %s loop %d has memory ops but no working set", m.Name, i)
		}
	}
	return nil
}

// HasFPOps reports whether the model's static program holds an FP-domain
// instruction (FPAdd, FPMult or FPDiv). A program without one never
// dispatches to the FP issue queues. It reads the loop specs instead of
// building the program: only FP chains emit FP-domain operations, and
// every FP chain emits at least one, since jitterLen never returns less
// than one.
func (m Model) HasFPOps() bool {
	for _, l := range m.Loops {
		if l.FPChains > 0 {
			return true
		}
	}
	return false
}

// Reserved integer registers within the 32-register file.
const (
	regInduction = 30 // loop induction variable
	regBase      = 31 // array base / always-ready value
)

// staticInst is one instruction of the synthesized static program.
type staticInst struct {
	class          isa.Class
	src1, src2     int16
	src1FP, src2FP bool
	dest           int16
	destFP         bool

	memSite int // index into generator memory-site state, -1 if none
	brSite  int // index into generator branch-site state, -1 if none

	// takenTarget is the static index control moves to when a branch is
	// taken; backEdge marks the loop-closing branch.
	takenTarget int
	backEdge    bool
}

// brSite is the static description of a branch site.
type brSite struct {
	bias    float64 // probability of "taken" before entropy mixing
	entropy float64
	loop    int // owning loop, for trip-count bookkeeping (back edges)
}

// memSite is the static description of a memory reference site.
type memSite struct {
	stream  bool
	stride  uint64
	base    uint64
	wsMask  uint64 // working-set size mask (power-of-two bytes - 1)
	hotMask uint64 // hot-region mask for non-streaming sites
}

// program is a fully laid out static program.
type program struct {
	insts    []staticInst
	brSites  []brSite
	memSites []memSite
	// loopOf maps a static index to its loop number (for stats).
	loopOf []int
}

// buildProgram lays out all loops (and their copies) contiguously and
// returns the static program. Construction is deterministic in m.Seed.
func buildProgram(m Model) *program {
	r := rng.New(m.Seed ^ 0xabe11a)
	p := &program{}
	for li, loop := range m.Loops {
		copies := loop.Copies
		if copies <= 0 {
			copies = 1
		}
		for c := 0; c < copies; c++ {
			buildLoopBody(p, li, loop, r)
		}
	}
	return p
}

// chainPlan is one dependence chain being scheduled into a loop body.
type chainPlan struct {
	fp      bool
	reg     int16 // architectural register that carries the chain
	length  int   // remaining ALU ops
	started bool  // first op emitted (controls loop-carried vs fresh src)
	carried bool  // loop-carried chain
	head    bool  // starts with a load
	tail    bool  // ends with a store
}

// buildLoopBody appends one copy of the loop body to the program. Bodies
// consist of: induction update, interleaved chain operations (optionally
// guarded by skippable conditional segments) and the back-edge branch.
func buildLoopBody(p *program, loopIdx int, l LoopSpec, r *rng.Source) {
	start := len(p.insts)

	emit := func(si staticInst) int {
		p.insts = append(p.insts, si)
		p.loopOf = append(p.loopOf, loopIdx)
		return len(p.insts) - 1
	}
	newMemSite := func(streamBias float64) int {
		stream := r.Float64() < streamBias
		ws := uint64(l.WorkingSetKB) * 1024
		// Round the working set up to a power of two for cheap masking.
		mask := uint64(1)
		for mask < ws {
			mask <<= 1
		}
		stride := uint64(l.StrideBytes)
		if stride == 0 {
			stride = 8
		}
		// Arrays are spaced 16 MiB apart with a 65-line stagger so
		// concurrently walked streams spread across cache sets instead
		// of colliding in set 0 of every level.
		idx := uint64(len(p.memSites))
		// Non-streaming sites concentrate most references in a small
		// hot region (temporal locality of real pointer/table code).
		// The region is 2 KiB per site so that a loop body's dozen
		// sites together stay within the L1 capacity, as real hot
		// working sets do.
		hot := uint64(2 * 1024)
		if hot > mask {
			hot = mask
		}
		p.memSites = append(p.memSites, memSite{
			stream:  stream,
			stride:  stride,
			base:    0x1000_0000 + idx*(16<<20) + idx*65*64,
			wsMask:  mask - 1,
			hotMask: hot - 1,
		})
		return len(p.memSites) - 1
	}
	newBrSite := func(bias, entropy float64) int {
		p.brSites = append(p.brSites, brSite{bias: bias, entropy: entropy, loop: loopIdx})
		return len(p.brSites) - 1
	}

	// Plan the chains of one iteration.
	var chains []*chainPlan
	for i := 0; i < l.IntChains; i++ {
		chains = append(chains, &chainPlan{
			fp:      false,
			reg:     int16(i % (isa.NumLogicalRegs - 4)),
			length:  jitterLen(l.IntChainLen, r),
			carried: r.Float64() < l.LoopCarried,
			head:    r.Float64() < l.LoadHead,
			tail:    r.Float64() < l.StoreTail,
		})
	}
	for i := 0; i < l.FPChains; i++ {
		chains = append(chains, &chainPlan{
			fp:      true,
			reg:     int16(i % (isa.NumLogicalRegs - 2)),
			length:  jitterLen(l.FPChainLen, r),
			carried: r.Float64() < l.LoopCarried,
			head:    r.Float64() < l.LoadHead,
			tail:    r.Float64() < l.StoreTail,
		})
	}

	// Induction variable update: i = i + 1 (loop carried, integer).
	emit(staticInst{
		class: isa.IntALU,
		src1:  regInduction, dest: regInduction,
		src2: isa.NoReg, memSite: -1, brSite: -1, takenTarget: -1,
	})

	// emitChainStep emits the next instruction of a chain (head load,
	// body operation, or tail store) and reports whether the chain has
	// more to emit.
	emitChainStep := func(ci int) bool {
		ch := chains[ci]
		switch {
		case ch.head:
			// Head load. Loop-carried chains compute the address
			// from the previous iteration's value (pointer
			// chasing); others index off the induction variable.
			addr, addrFP := int16(regInduction), false
			if ch.carried && !ch.fp {
				addr = ch.reg
			}
			emit(staticInst{
				class: isa.Load,
				src1:  addr, src1FP: addrFP, src2: isa.NoReg,
				dest: ch.reg, destFP: ch.fp,
				memSite: newMemSite(l.StreamFrac), brSite: -1, takenTarget: -1,
			})
			ch.head = false
			ch.started = true
		case ch.length > 0:
			ch.length--
			class := chainOpClass(ch.fp, l, r)
			src1 := ch.reg
			started := ch.started
			ch.started = true
			var src2 int16 = isa.NoReg
			var src2FP bool
			if r.Float64() < l.CrossDep && len(chains) > 1 {
				other := chains[(ci+1+r.Intn(len(chains)-1))%len(chains)]
				src2 = other.reg
				src2FP = other.fp
			}
			// A chain that is neither started by a load nor
			// loop-carried begins from the always-ready integer
			// base register (an immediate in real code); a
			// started or loop-carried chain reads its own
			// carrying register.
			src1FP := ch.fp
			if !started && !ch.carried {
				src1 = regBase
				src1FP = false
			}
			emit(staticInst{
				class: class,
				src1:  src1, src1FP: src1FP,
				src2: src2, src2FP: src2FP,
				dest: ch.reg, destFP: ch.fp,
				memSite: -1, brSite: -1, takenTarget: -1,
			})
		case ch.tail:
			// Tail store to an induction-indexed array. (Storing
			// through the chain value itself — a pointer write —
			// would make the store address depend on the whole
			// chain and, under conservative memory disambiguation,
			// serialize every younger load behind it.)
			emit(staticInst{
				class: isa.Store,
				src1:  regInduction, src1FP: false,
				src2: ch.reg, src2FP: ch.fp, // data operand
				dest:    isa.NoReg,
				memSite: newMemSite(l.StreamFrac), brSite: -1, takenTarget: -1,
			})
			ch.tail = false
		}
		return ch.head || ch.length > 0 || ch.tail
	}

	// Emit the chain instructions. Integer codes emit chains mostly
	// contiguously (short dependence distances, as compilers schedule
	// them); FP codes interleave chains (modulo scheduling for latency
	// hiding). The Interleave parameter is the probability of switching
	// to a different unfinished chain after each instruction.
	live := make([]int, len(chains))
	for i := range live {
		live[i] = i
	}
	condLeft := l.CondBranches
	var pendingBranch = -1 // static index of a branch with unresolved target
	cur := 0
	lastReg, lastRegFP := int16(regInduction), false
	for len(live) > 0 {
		if cur >= len(live) {
			cur = 0
		}
		ci := live[cur]
		more := emitChainStep(ci)
		lastReg, lastRegFP = chains[ci].reg, chains[ci].fp
		if !more {
			live = append(live[:cur], live[cur+1:]...)
			// A chain boundary closes any open guarded segment: a
			// conditional branch guards at most one chain (a
			// loop-body "if" of a few instructions, not an
			// arbitrary span).
			if pendingBranch >= 0 {
				p.insts[pendingBranch].takenTarget = len(p.insts)
				pendingBranch = -1
			}
			// It is also where compilers place the conditional
			// branches that consume the finished chain's result.
			if condLeft > 0 && !lastRegFP && r.Float64() < 0.6 {
				condLeft--
				// Real conditional branches are strongly
				// biased; site entropy (the mispredictable
				// fraction) is applied at outcome time, not by
				// flattening the bias. Forward branches skip
				// their guarded chain only in the uncommon
				// case (most sites fall through).
				bias := 0.88 + 0.1*r.Float64()
				if r.Bool(0.65) {
					bias = 1 - bias
				}
				// Half the conditional branches test the chain
				// result (late-resolving, data-dependent); the
				// rest test loop-control values that are ready
				// almost immediately.
				src := lastReg
				if r.Bool(0.5) {
					src = regInduction
				}
				pendingBranch = emit(staticInst{
					class: isa.Branch,
					src1:  src, src2: isa.NoReg,
					dest:    isa.NoReg,
					memSite: -1, brSite: newBrSite(bias, l.BranchEntropy),
					takenTarget: -1, // resolved at the next boundary
				})
			}
			continue
		}
		if r.Float64() < l.Interleave && len(live) > 1 {
			cur = (cur + 1 + r.Intn(len(live)-1)) % len(live)
		}
	}
	if pendingBranch >= 0 {
		p.insts[pendingBranch].takenTarget = len(p.insts)
	}

	// Back edge: taken re-enters this body copy, not-taken falls through
	// to whatever is laid out next (the next loop/copy, or wraps).
	emit(staticInst{
		class: isa.Branch,
		src1:  regInduction, src2: isa.NoReg, dest: isa.NoReg,
		memSite: -1, brSite: newBrSite(1.0, 0),
		takenTarget: start, backEdge: true,
	})
}

// chainOpClass samples the class of one chain operation.
func chainOpClass(fp bool, l LoopSpec, r *rng.Source) isa.Class {
	x := r.Float64()
	if fp {
		switch {
		case x < l.FPDivFrac:
			return isa.FPDiv
		case x < l.FPDivFrac+l.FPMulFrac:
			return isa.FPMult
		default:
			return isa.FPAdd
		}
	}
	switch {
	case x < l.IntDivFrac:
		return isa.IntDiv
	case x < l.IntDivFrac+l.IntMulFrac:
		return isa.IntMult
	default:
		return isa.IntALU
	}
}

// jitterLen perturbs a mean chain length by ±25% deterministically.
func jitterLen(mean int, r *rng.Source) int {
	if mean <= 1 {
		return maxInt(mean, 1)
	}
	delta := mean / 4
	if delta == 0 {
		return mean
	}
	return mean - delta + r.Intn(2*delta+1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
