package isa

// Inst is one dynamic instruction flowing through the simulator. A trace
// generator fills in the architectural fields (class, logical registers,
// address, branch behaviour); the pipeline fills in the microarchitectural
// fields (physical registers, timing) as the instruction advances.
//
// Logical and physical register numbers are domain-local: integer register
// 3 and floating-point register 3 are distinct, and the domain of each
// operand is carried alongside its index.
type Inst struct {
	// Seq is the dynamic sequence number (fetch order), used as the age
	// identifier basis.
	Seq uint64
	// PC is the instruction address, used by the branch predictor and
	// instruction cache.
	PC uint64
	// Class is the operation class.
	Class Class

	// Src1/Src2 are logical source register indices, or NoReg. SrcFP
	// flags give each source's register-file domain (an FP load's
	// address source is integer; an FP store's data source is FP).
	Src1, Src2     int16
	Src1FP, Src2FP bool
	// Dest is the logical destination register index, or NoReg.
	Dest   int16
	DestFP bool

	// Addr is the effective address of a load or store.
	Addr uint64
	// Taken is the architectural outcome of a branch.
	Taken bool
	// Target is the branch target address.
	Target uint64

	// ---- Fields below are owned by the pipeline. ----

	// PSrc1, PSrc2, PDest are renamed physical registers (NoReg if the
	// corresponding logical operand is absent). POld is the physical
	// register previously mapped to Dest, freed at commit.
	PSrc1, PSrc2, PDest, POld int16

	// Mispredicted is set at fetch when the branch predictor disagrees
	// with the architectural outcome.
	Mispredicted bool

	// AgeID is the wrap-bit-extended ROB position used for ordering by
	// the selection logic (smaller = older).
	AgeID uint32

	// QueueID and ChainID record where the dispatch logic placed the
	// instruction (scheme-specific; -1 when unused).
	QueueID, ChainID int

	// EstIssue is the estimated issue cycle computed at dispatch, read
	// by the LatFIFO and PreSched placement logic.
	EstIssue int64

	// FetchCycle is the cycle the instruction entered the fetch queue;
	// dispatch waits DecodeDepth cycles past it. Tracers receive the
	// cycle of every other pipeline event as an argument.
	FetchCycle int64

	// Issued and Completed track execution status inside the window.
	Issued, Completed bool

	// NextEvent links instructions completing in the same cycle into the
	// pipeline's intrusive completion-event list (an instruction is in at
	// most one such list at a time), so scheduling a completion never
	// allocates.
	NextEvent *Inst
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool { return in.Dest != NoReg }

// NumSources returns how many register source operands the instruction has.
func (in *Inst) NumSources() int {
	n := 0
	if in.Src1 != NoReg {
		n++
	}
	if in.Src2 != NoReg {
		n++
	}
	return n
}

// Domain returns the dispatch domain of the instruction.
func (in *Inst) Domain() Domain { return in.Class.Domain() }

// ResetMicro clears all pipeline-owned fields, allowing an Inst produced by
// a trace generator to be re-simulated under a different configuration.
func (in *Inst) ResetMicro() {
	in.PSrc1, in.PSrc2, in.PDest, in.POld = NoReg, NoReg, NoReg, NoReg
	in.Mispredicted = false
	in.AgeID = 0
	in.QueueID, in.ChainID = -1, -1
	in.EstIssue = 0
	in.FetchCycle = 0
	in.Issued, in.Completed = false, false
	in.NextEvent = nil
}
