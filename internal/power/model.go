package power

import (
	"fmt"
	"strings"

	"distiq/internal/isa"
)

// Style identifies the storage organization of an issue scheme.
type Style uint8

const (
	// StyleCAM is the conventional CAM/RAM issue queue.
	StyleCAM Style = iota
	// StyleFIFO is a bank of FIFO queues (IssueFIFO / LatFIFO).
	StyleFIFO
	// StyleBuff is the MixBUFF random-access buffer organization.
	StyleBuff
)

// Geometry describes one issue-scheme instance for the energy model.
type Geometry struct {
	Style   Style
	Queues  int // number of queues (1 for the CAM baseline queue)
	Entries int // entries per queue
	Chains  int // chains per queue (MixBUFF)

	// TagBits is the operand tag width (physical register number);
	// PayloadBits the RAM payload per entry.
	TagBits, PayloadBits int

	// Banks is the sub-banking factor of the CAM baseline (the paper
	// assumes 8 banks of 8 entries per 64-entry queue).
	Banks int

	// SecondLevel is the entry count of a two-level scheme's wakeup-free
	// buffer (PreSched); 0 for single-level organizations.
	SecondLevel int

	// FUFanout is, per functional-unit kind, the number of units an
	// instruction leaving this scheme can be routed to (0 when this
	// scheme never issues to that kind). With distributed functional
	// units the fanout is 1 (or one shared unit per queue pair).
	FUFanout [isa.NumFUKinds]int
}

// Per-event energy constants at 0.10 µm, in picojoules. They are
// calibrated so the baseline breakdown reproduces Figure 9 (wakeup
// dominant, buffer and selection visible, integer-ALU crossbar
// significant); all schemes share the same constants, so relative
// comparisons are meaningful even where absolute values are approximate.
const (
	eCellRead   = 0.0009 // per bit-cell on an activated bitline (read)
	eCellWrite  = 0.0011 // per bit-cell (write)
	eWordline   = 0.045  // per bit of wordline/sense overhead
	eDecode     = 0.012  // per entry of decoder overhead
	eRAMBase    = 0.4    // fixed per access
	eCAMCell    = 0.095  // per comparator cell (tag bit) searched
	eTagDrive   = 0.019  // per entry-bit of tag-line wire driven
	eSelectCell = 0.065  // per entry examined by a selection tree
	eSelectBase = 0.35   // per selection operation
	eMuxPerSrc  = 0.022  // per (entry x unit) of crossbar routing per issue
	eLatch      = 0.18   // per small register write
	eBitTable   = 0.0025 // per entry of a 1-bit table access
	eBitBase    = 0.11   // fixed per 1-bit table access
)

// ramRead returns the energy of reading one entry of an n-entry, b-bit RAM.
func ramRead(n, b int) float64 {
	return eCellRead*float64(n)*float64(b)/8 + eWordline*float64(b) +
		eDecode*float64(n) + eRAMBase
}

// ramWrite returns the energy of writing one entry.
func ramWrite(n, b int) float64 {
	return eCellWrite*float64(n)*float64(b)/8 + eWordline*float64(b) +
		eDecode*float64(n) + eRAMBase
}

// fifoAccess returns the energy of pushing/popping a FIFO: no decoder is
// needed (head/tail pointers), so only the accessed entry's cells switch.
func fifoAccess(b int) float64 {
	return eCellWrite*float64(b) + eWordline*float64(b)/2 + eRAMBase/2
}

// Component names one issue-logic energy component of Figures 9-11.
// Components are numbered in byte order of their names, the order in
// which Total sums them and a breakdown's JSON object lists them.
type Component uint8

// The components a power model charges. PreSched's second-level buffer
// (buff2) extends the paper's set.
const (
	MuxFPALU Component = iota
	MuxFPMUL
	MuxIntALU
	MuxIntMUL
	Qrename
	Buff
	Buff2
	Chains
	FIFO
	Reg
	RegsReady
	Select
	Wakeup
	// NumComponents is the number of components.
	NumComponents
)

// componentNames label the components as the paper's figures do.
var componentNames = [NumComponents]string{
	MuxFPALU: "MuxFPALU", MuxFPMUL: "MuxFPMUL", MuxIntALU: "MuxIntALU", MuxIntMUL: "MuxIntMUL",
	Qrename: "Qrename", Buff: "buff", Buff2: "buff2", Chains: "chains", FIFO: "fifo",
	Reg: "reg", RegsReady: "regs_ready", Select: "select", Wakeup: "wakeup",
}

// String returns the component's label.
func (c Component) String() string { return componentNames[c] }

// ComponentNamed returns the component labeled name, or false when no
// component has that label.
func ComponentNamed(name []byte) (Component, bool) {
	for c, n := range componentNames {
		if n == string(name) {
			return Component(c), true
		}
	}
	return 0, false
}

// Breakdown is the issue-logic energy of one scheme instance, in
// picojoules per component, with the set of components the power model
// charged: a charged component may hold zero energy, and an uncharged
// one always does. The zero Breakdown charges nothing. A Breakdown is a
// plain value, so assigning one copies it.
type Breakdown struct {
	pJ      [NumComponents]float64
	charged uint16
}

// Set charges component c with v picojoules.
func (b *Breakdown) Set(c Component, v float64) {
	b.pJ[c] = v
	b.charged |= 1 << c
}

// Get returns component c's energy, 0 when c is not charged.
func (b Breakdown) Get(c Component) float64 { return b.pJ[c] }

// Charged reports whether the power model charged component c.
func (b Breakdown) Charged(c Component) bool { return b.charged&(1<<c) != 0 }

// Empty reports whether no component is charged.
func (b Breakdown) Empty() bool { return b.charged == 0 }

// Total returns the summed energy of all components, in component order,
// so the sum is bit-identical across runs (floating-point addition is
// not associative). An uncharged component adds +0, which leaves every
// partial sum as it is.
func (b Breakdown) Total() float64 {
	t := 0.0
	for _, v := range b.pJ {
		t += v
	}
	return t
}

// Add accumulates o into b: every component o charges is charged in b
// with the two energies summed.
func (b *Breakdown) Add(o Breakdown) {
	for c := range NumComponents {
		if o.Charged(c) {
			b.pJ[c] += o.pJ[c]
		}
	}
	b.charged |= o.charged
}

// String renders the charged components sorted by decreasing energy,
// components of equal energy by name, then the total.
func (b Breakdown) String() string {
	var order [NumComponents]Component
	n := 0
	for c := range NumComponents {
		if !b.Charged(c) {
			continue
		}
		// Insert c after every listed component of greater or equal
		// energy; components come in name order, so ties keep it.
		i := n
		for ; i > 0 && b.pJ[order[i-1]] < b.pJ[c]; i-- {
			order[i] = order[i-1]
		}
		order[i] = c
		n++
	}
	total := b.Total()
	var sb strings.Builder
	for _, c := range order[:n] {
		pct := 0.0
		if total > 0 {
			pct = 100 * b.pJ[c] / total
		}
		fmt.Fprintf(&sb, "  %-10s %14.1f pJ  %5.1f%%\n", c, b.pJ[c], pct)
	}
	fmt.Fprintf(&sb, "  %-10s %14.1f pJ\n", "total", total)
	return sb.String()
}

// muxComponents name the crossbar components per functional-unit kind,
// matching the paper's figures.
var muxComponents = [isa.NumFUKinds]Component{
	isa.IntALUUnit: MuxIntALU,
	isa.IntMulUnit: MuxIntMUL,
	isa.FPAddUnit:  MuxFPALU,
	isa.FPMulUnit:  MuxFPMUL,
}

// Calc converts Events into energy for one scheme instance.
type Calc struct {
	geom Geometry
}

// NewCalc returns a calculator for the geometry.
func NewCalc(g Geometry) *Calc {
	if g.Queues <= 0 || g.Entries <= 0 {
		panic("power: geometry needs queues and entries")
	}
	if g.TagBits <= 0 {
		g.TagBits = 8
	}
	if g.PayloadBits <= 0 {
		g.PayloadBits = 80
	}
	return &Calc{geom: g}
}

// Geometry returns the calculator's geometry.
func (c *Calc) Geometry() Geometry { return c.geom }

// Energy converts the event counts into a labeled breakdown.
func (c *Calc) Energy(ev *Events) Breakdown {
	g := c.geom
	var bd Breakdown
	totalEntries := g.Queues * g.Entries

	switch g.Style {
	case StyleCAM:
		// Wakeup: each exercised comparator searches TagBits cells;
		// every broadcast drives the tag lines across the live bank
		// span. Sub-banking shortens the driven wire.
		span := totalEntries
		if g.Banks > 1 {
			span = totalEntries / g.Banks * ((g.Banks + 1) / 2)
		}
		bd.Set(Wakeup, float64(ev.WakeupCAMCells)*eCAMCell*float64(g.TagBits)+
			float64(ev.WakeupBroadcasts)*eTagDrive*float64(span)*float64(g.TagBits))
		bd.Set(Buff, float64(ev.IQWrites)*ramWrite(totalEntries, g.PayloadBits)+
			float64(ev.IQReads)*ramRead(totalEntries, g.PayloadBits))
		bd.Set(Select, float64(ev.SelectEntries)*eSelectCell+
			float64(ev.SelectOps)*eSelectBase)
		// A two-level organization (PreSched) fronts the CAM with a
		// wakeup-free second-level buffer whose traffic arrives in the
		// FIFO counters; pure CAM schemes never touch them.
		if ev.FIFOReads+ev.FIFOWrites > 0 {
			l2 := g.SecondLevel
			if l2 <= 0 {
				l2 = totalEntries
			}
			bd.Set(Buff2, float64(ev.FIFOWrites)*ramWrite(l2, g.PayloadBits)+
				float64(ev.FIFOReads)*ramRead(l2, g.PayloadBits))
		}

	case StyleFIFO:
		bd.Set(Qrename, float64(ev.QRenameReads)*ramRead(isa.NumLogicalRegs*2, qrenameBits(g))+
			float64(ev.QRenameWrites)*ramWrite(isa.NumLogicalRegs*2, qrenameBits(g)))
		bd.Set(FIFO, float64(ev.FIFOWrites+ev.FIFOReads)*fifoAccess(g.PayloadBits))
		bd.Set(RegsReady, float64(ev.RegsReadyReads)*
			(eBitTable*float64(isa.NumPhysicalRegs)+eBitBase))

	case StyleBuff:
		bd.Set(Qrename, float64(ev.QRenameReads)*ramRead(isa.NumLogicalRegs*2, qrenameBits(g))+
			float64(ev.QRenameWrites)*ramWrite(isa.NumLogicalRegs*2, qrenameBits(g)))
		// The buffer is a true RAM (random insert/remove), so it pays
		// decoder energy, unlike a FIFO.
		bd.Set(Buff, float64(ev.BuffWrites)*ramWrite(g.Entries, g.PayloadBits)+
			float64(ev.BuffReads)*ramRead(g.Entries, g.PayloadBits))
		bd.Set(RegsReady, float64(ev.RegsReadyReads)*
			(eBitTable*float64(isa.NumPhysicalRegs)+eBitBase))
		bd.Set(Select, float64(ev.SelectEntries)*eSelectCell+
			float64(ev.SelectOps)*eSelectBase)
		// Chain latency table: whole-table read+write each cycle the
		// queue is active; each entry holds a saturating counter wide
		// enough for the largest latency (5 bits) plus the 2-bit code
		// compression.
		chainBits := 7
		chains := g.Chains
		if chains <= 0 {
			chains = g.Entries
		}
		bd.Set(Chains, float64(ev.ChainReads+ev.ChainWrites)*
			(eCellRead*float64(chains)*float64(chainBits)+eRAMBase/2))
		bd.Set(Reg, float64(ev.SelRegWrites)*eLatch)
	}

	// Issue crossbar: energy per issue scales with the number of entry
	// sources and reachable units the wires must span.
	for k := range ev.MuxIssues {
		if ev.MuxIssues[k] == 0 || g.FUFanout[k] == 0 {
			continue
		}
		perIssue := eMuxPerSrc * float64(g.Entries) * float64(g.FUFanout[k])
		bd.Set(muxComponents[k], float64(ev.MuxIssues[k])*perIssue)
	}
	return bd
}

// qrenameBits is the width of a queue-map table entry: a queue identifier
// plus, for MixBUFF, a chain identifier and a short sequence tag.
func qrenameBits(g Geometry) int {
	bits := log2ceil(g.Queues) + 1
	if g.Style == StyleBuff {
		chains := g.Chains
		if chains <= 0 {
			chains = g.Entries
		}
		bits += log2ceil(chains) + 6
	} else {
		bits += 4
	}
	return bits
}

func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
