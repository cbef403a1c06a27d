package power

import (
	"strings"
	"testing"

	"distiq/internal/isa"
)

func camGeom() Geometry {
	return Geometry{
		Style: StyleCAM, Queues: 1, Entries: 64, Banks: 8,
		TagBits: 8, PayloadBits: 80,
		FUFanout: [isa.NumFUKinds]int{8, 4, 0, 0},
	}
}

func fifoGeom() Geometry {
	return Geometry{
		Style: StyleFIFO, Queues: 8, Entries: 8,
		TagBits: 8, PayloadBits: 80,
		FUFanout: [isa.NumFUKinds]int{1, 1, 0, 0},
	}
}

func buffGeom() Geometry {
	return Geometry{
		Style: StyleBuff, Queues: 8, Entries: 16, Chains: 8,
		TagBits: 8, PayloadBits: 80,
		FUFanout: [isa.NumFUKinds]int{0, 0, 1, 1},
	}
}

func TestEventsAddAndReset(t *testing.T) {
	a := &Events{WakeupBroadcasts: 1, IQReads: 2, FIFOWrites: 3}
	a.MuxIssues[isa.FPAddUnit] = 7
	b := &Events{WakeupBroadcasts: 10, IQReads: 20, FIFOWrites: 30}
	b.MuxIssues[isa.FPAddUnit] = 70
	a.Add(b)
	if a.WakeupBroadcasts != 11 || a.IQReads != 22 || a.FIFOWrites != 33 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.MuxIssues[isa.FPAddUnit] != 77 {
		t.Fatal("MuxIssues not added")
	}
	a.Reset()
	if *a != (Events{}) {
		t.Fatal("Reset incomplete")
	}
}

func TestWakeupDominatesCAMBaseline(t *testing.T) {
	// With activity proportions typical of the simulations (a broadcast
	// per completing instruction, tens of unready operands per
	// broadcast), wakeup must dominate the baseline breakdown as in
	// Figure 9.
	c := NewCalc(camGeom())
	ev := &Events{
		WakeupBroadcasts: 1000,
		WakeupCAMCells:   40 * 1000,
		IQWrites:         1000,
		IQReads:          1000,
		SelectOps:        1000,
		SelectEntries:    30 * 1000,
	}
	ev.MuxIssues[isa.IntALUUnit] = 700
	ev.MuxIssues[isa.IntMulUnit] = 100
	bd := c.Energy(ev)
	if bd.Get(Wakeup) <= bd.Get(Buff) || bd.Get(Wakeup) <= bd.Get(Select) {
		t.Fatalf("wakeup not dominant: %v", bd)
	}
	frac := bd.Get(Wakeup) / bd.Total()
	if frac < 0.4 || frac > 0.9 {
		t.Fatalf("wakeup fraction %.2f outside Figure 9 ballpark", frac)
	}
}

func TestDistributedFIFOFarCheaperThanCAM(t *testing.T) {
	// Per dispatched+issued instruction, the FIFO organization must be
	// several times cheaper than the CAM baseline (Figure 13 shows
	// roughly a 4-5x energy reduction).
	camCalc, fifoCalc := NewCalc(camGeom()), NewCalc(fifoGeom())
	n := uint64(1000)
	camEv := &Events{
		WakeupBroadcasts: n, WakeupCAMCells: 35 * n,
		IQWrites: n, IQReads: n,
		SelectOps: n, SelectEntries: 30 * n,
	}
	camEv.MuxIssues[isa.IntALUUnit] = n
	fifoEv := &Events{
		QRenameReads: 2 * n, QRenameWrites: n,
		FIFOReads: n, FIFOWrites: n,
		RegsReadyReads: 2 * n,
	}
	fifoEv.MuxIssues[isa.IntALUUnit] = n
	ec, ef := camCalc.Energy(camEv).Total(), fifoCalc.Energy(fifoEv).Total()
	if ef*2.5 > ec {
		t.Fatalf("FIFO energy %.0f not well below CAM %.0f", ef, ec)
	}
}

func TestMuxEnergyScalesWithFanout(t *testing.T) {
	g1 := camGeom()
	g2 := camGeom()
	g2.FUFanout[isa.IntALUUnit] = 1
	ev := &Events{}
	ev.MuxIssues[isa.IntALUUnit] = 100
	e1 := NewCalc(g1).Energy(ev).Get(MuxIntALU)
	e2 := NewCalc(g2).Energy(ev).Get(MuxIntALU)
	if e1 <= e2*7 {
		t.Fatalf("8-way fanout %.1f not ~8x 1-way %.1f", e1, e2)
	}
}

func TestBuffBreakdownHasPaperComponents(t *testing.T) {
	c := NewCalc(buffGeom())
	ev := &Events{
		QRenameReads: 10, QRenameWrites: 5,
		BuffReads: 7, BuffWrites: 9, RegsReadyReads: 14,
		SelectOps: 8, SelectEntries: 50,
		ChainReads: 8, ChainWrites: 8, SelRegWrites: 8,
	}
	ev.MuxIssues[isa.FPAddUnit] = 4
	bd := c.Energy(ev)
	for _, c := range []Component{Qrename, Buff, RegsReady, Select, Chains, Reg, MuxFPALU} {
		if bd.Get(c) <= 0 {
			t.Errorf("component %s missing from MixBUFF breakdown: %v", c, bd)
		}
	}
}

func TestZeroEventsZeroEnergy(t *testing.T) {
	for _, g := range []Geometry{camGeom(), fifoGeom(), buffGeom()} {
		if tot := NewCalc(g).Energy(&Events{}).Total(); tot != 0 {
			t.Errorf("zero events produced %.2f pJ for %+v", tot, g)
		}
	}
}

// breakdownOf returns a breakdown charging each component with the
// energy that follows it.
func breakdownOf(kv ...any) Breakdown {
	var b Breakdown
	for i := 0; i < len(kv); i += 2 {
		b.Set(kv[i].(Component), kv[i+1].(float64))
	}
	return b
}

func TestBreakdownHelpers(t *testing.T) {
	a := breakdownOf(FIFO, 1.0, Select, 2.0)
	b := breakdownOf(Select, 3.0, Wakeup, 4.0, Reg, 0.0)
	a.Add(b)
	if a.Get(FIFO) != 1 || a.Get(Select) != 5 || a.Get(Wakeup) != 4 {
		t.Fatalf("Add wrong: %v", a)
	}
	if !a.Charged(Reg) || a.Charged(Chains) || a.Get(Chains) != 0 {
		t.Fatalf("Add charged the wrong components: %v", a)
	}
	if a.Total() != 10 {
		t.Fatalf("Total = %v", a.Total())
	}
	if (Breakdown{}).Total() != 0 || !(Breakdown{}).Empty() || a.Empty() {
		t.Fatal("Empty wrong")
	}
	s := a.String()
	if !strings.Contains(s, "total") || !strings.Contains(s, "select") || !strings.Contains(s, "reg ") {
		t.Fatalf("String output missing content:\n%s", s)
	}
}

// TestComponentNames: components are numbered in byte order of their
// labels, and every label names its component.
func TestComponentNames(t *testing.T) {
	for c := range NumComponents {
		if c > 0 && componentNames[c-1] >= componentNames[c] {
			t.Errorf("%s is numbered after %s", c, c-1)
		}
		if got, ok := ComponentNamed([]byte(c.String())); !ok || got != c {
			t.Errorf("ComponentNamed(%q) = %v, %v", c, got, ok)
		}
	}
	for _, name := range []string{"", "alloc", "Wakeup", "wakeup ", "buff3"} {
		if c, ok := ComponentNamed([]byte(name)); ok {
			t.Errorf("ComponentNamed(%q) = %v, want none", name, c)
		}
	}
}

// TestBreakdownStringOrdersTiesByName renders a breakdown whose
// components tie in energy, as an idle domain's zero-energy components
// do: every rendering is identical and lists the ties in name order.
func TestBreakdownStringOrdersTiesByName(t *testing.T) {
	b := breakdownOf(Wakeup, 5.0, Select, 0.0, FIFO, 0.0, Buff, 0.0, RegsReady, 5.0, MuxFPALU, 0.0, Chains, 7.0)
	want := b.String()
	for i := 0; i < 50; i++ {
		if got := b.String(); got != want {
			t.Fatalf("rendering %d differs:\n%s\nfirst:\n%s", i, got, want)
		}
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(want), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	order := "chains regs_ready wakeup MuxFPALU buff fifo select total"
	if got := strings.Join(names, " "); got != order {
		t.Fatalf("components listed as %q, want %q", got, order)
	}
}

func TestBankingReducesWakeupDrive(t *testing.T) {
	ev := &Events{WakeupBroadcasts: 1000}
	unbanked := camGeom()
	unbanked.Banks = 1
	eb := NewCalc(camGeom()).Energy(ev).Get(Wakeup)
	eu := NewCalc(unbanked).Energy(ev).Get(Wakeup)
	if eb >= eu {
		t.Fatalf("banked drive %.1f not below unbanked %.1f", eb, eu)
	}
}

func TestCalcPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewCalc(Geometry{Style: StyleCAM})
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 64: 6}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRAMEnergyMonotonicInGeometry(t *testing.T) {
	// More entries or wider payloads must never cost less energy per
	// access; a FIFO access must undercut a same-size RAM access (no
	// decoder).
	for _, entries := range []int{8, 16, 64, 256} {
		for _, bits := range []int{20, 80, 200} {
			small := ramRead(entries, bits)
			if big := ramRead(entries*2, bits); big <= small {
				t.Fatalf("ramRead not monotone in entries (%d,%d)", entries, bits)
			}
			if wide := ramRead(entries, bits*2); wide <= small {
				t.Fatalf("ramRead not monotone in bits (%d,%d)", entries, bits)
			}
			if w := ramWrite(entries, bits); w <= 0 {
				t.Fatalf("ramWrite non-positive")
			}
			if f := fifoAccess(bits); f >= small {
				t.Fatalf("fifoAccess(%d) = %v not below ramRead(%d,%d) = %v",
					bits, f, entries, bits, small)
			}
		}
	}
}

func TestCAMEnergyPerEventScales(t *testing.T) {
	// Doubling the queue size must increase per-broadcast wakeup energy
	// (longer tag lines) while per-cell compare energy stays constant.
	ev := &Events{WakeupBroadcasts: 100, WakeupCAMCells: 1000}
	small := camGeom()
	big := camGeom()
	big.Entries = 128
	eSmall := NewCalc(small).Energy(ev).Get(Wakeup)
	eBig := NewCalc(big).Energy(ev).Get(Wakeup)
	if eBig <= eSmall {
		t.Fatalf("wakeup energy did not grow with queue size: %v vs %v", eSmall, eBig)
	}
}

func TestQrenameBitsGrowWithChains(t *testing.T) {
	fifo := fifoGeom()
	buff := buffGeom()
	if qrenameBits(buff) <= qrenameBits(fifo) {
		t.Fatal("MixBUFF map entries must be wider (chain id + sequence tag)")
	}
}
