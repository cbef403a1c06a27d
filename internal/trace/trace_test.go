package trace

import (
	"math"
	"testing"

	"distiq/internal/isa"
)

func TestAllModelsValidate(t *testing.T) {
	for _, name := range AllBenchmarks() {
		m := MustByName(name)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSuiteCounts(t *testing.T) {
	if n := len(Benchmarks(SuiteInt)); n != 12 {
		t.Errorf("SPECINT count = %d, want 12", n)
	}
	if n := len(Benchmarks(SuiteFP)); n != 14 {
		t.Errorf("SPECFP count = %d, want 14", n)
	}
	if n := len(AllBenchmarks()); n != 26 {
		t.Errorf("total count = %d, want 26", n)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName on unknown benchmark did not error")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{Name: "", Loops: []LoopSpec{{IntChains: 1, IntChainLen: 1, TripCount: 1}}},
		{Name: "x"},
		{Name: "x", Loops: []LoopSpec{{}}},
		{Name: "x", Loops: []LoopSpec{{IntChains: 1, TripCount: 1}}},
		{Name: "x", Loops: []LoopSpec{{IntChains: 1, IntChainLen: 1, TripCount: 0}}},
		{Name: "x", Loops: []LoopSpec{{IntChains: 40, IntChainLen: 1, TripCount: 1}}},
		{Name: "x", Loops: []LoopSpec{{IntChains: 1, IntChainLen: 1, TripCount: 1, LoadHead: 0.5}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d validated", i)
		}
	}
}

// TestValidateBoundsWorkingSet pins the working-set bound to the tape's
// address word: the largest valid working set yields offsets that still
// fit in 32 bits once shifted right by 3, and one KB more is rejected.
func TestValidateBoundsWorkingSet(t *testing.T) {
	m := Model{Name: "ws", Suite: SuiteInt, Seed: 1, Loops: []LoopSpec{{
		IntChains: 1, IntChainLen: 1, LoadHead: 1, TripCount: 1,
		WorkingSetKB: maxWorkingSetKB,
	}}}
	if err := m.Validate(); err != nil {
		t.Fatalf("%d KB working set rejected: %v", maxWorkingSetKB, err)
	}
	for _, ms := range buildProgram(m).memSites {
		if ms.wsMask>>3 > math.MaxUint32 {
			t.Fatalf("largest offset %#x does not fit the tape word", ms.wsMask&^7)
		}
	}
	m.Loops[0].WorkingSetKB++
	if err := m.Validate(); err == nil {
		t.Fatalf("%d KB working set validated", m.Loops[0].WorkingSetKB)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	m := MustByName("swim")
	a, b := NewGenerator(m), NewGenerator(m)
	var ia, ib isa.Inst
	for i := 0; i < 20000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged at %d:\n%+v\n%+v", i, ia, ib)
		}
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	g := NewGenerator(MustByName("gzip"))
	var in isa.Inst
	for i := 0; i < 5000; i++ {
		g.Next(&in)
		if in.Seq != uint64(i) {
			t.Fatalf("seq = %d at instruction %d", in.Seq, i)
		}
	}
}

func TestOperandsWellFormed(t *testing.T) {
	for _, name := range AllBenchmarks() {
		g := NewGenerator(MustByName(name))
		var in isa.Inst
		for i := 0; i < 20000; i++ {
			g.Next(&in)
			for _, r := range []int16{in.Src1, in.Src2, in.Dest} {
				if r != isa.NoReg && (r < 0 || r >= isa.NumLogicalRegs) {
					t.Fatalf("%s: register %d out of range in %+v", name, r, in)
				}
			}
			switch in.Class {
			case isa.Load:
				if in.Dest == isa.NoReg || in.Addr == 0 {
					t.Fatalf("%s: malformed load %+v", name, in)
				}
			case isa.Store:
				if in.Dest != isa.NoReg || in.Addr == 0 || in.Src2 == isa.NoReg {
					t.Fatalf("%s: malformed store %+v", name, in)
				}
			case isa.Branch:
				if in.Dest != isa.NoReg {
					t.Fatalf("%s: branch writes a register %+v", name, in)
				}
				if in.Taken && in.Target == 0 {
					t.Fatalf("%s: taken branch without target %+v", name, in)
				}
			case isa.FPAdd, isa.FPMult, isa.FPDiv:
				if in.Dest == isa.NoReg || !in.DestFP {
					t.Fatalf("%s: FP op without FP dest %+v", name, in)
				}
			}
		}
	}
}

func TestBranchTargetsInProgram(t *testing.T) {
	g := NewGenerator(MustByName("gcc"))
	limit := codeBase + uint64(g.StaticSize())*4
	var in isa.Inst
	for i := 0; i < 50000; i++ {
		g.Next(&in)
		if in.PC < codeBase || in.PC >= limit {
			t.Fatalf("PC %#x outside program", in.PC)
		}
		if in.Class == isa.Branch && in.Taken {
			if in.Target < codeBase || in.Target >= limit {
				t.Fatalf("target %#x outside program", in.Target)
			}
		}
	}
}

func TestSuiteDDGContrast(t *testing.T) {
	// The paper's core observation: FP codes have much wider dependence
	// graphs than integer codes. Verify the generated traces exhibit it.
	width := func(name string) float64 {
		g := NewGenerator(MustByName(name))
		return CollectStats(g, 60000).WindowChainWidth
	}
	intMean, fpMean := 0.0, 0.0
	for _, n := range Benchmarks(SuiteInt) {
		intMean += width(n)
	}
	intMean /= float64(len(Benchmarks(SuiteInt)))
	for _, n := range Benchmarks(SuiteFP) {
		fpMean += width(n)
	}
	fpMean /= float64(len(Benchmarks(SuiteFP)))
	if fpMean < 3*intMean {
		t.Fatalf("FP chain width %.2f not >> int %.2f", fpMean, intMean)
	}
	if fpMean < 4 {
		t.Fatalf("FP suite mean chain width %.2f too narrow for the study", fpMean)
	}
}

func TestMixesPlausible(t *testing.T) {
	for _, name := range AllBenchmarks() {
		m := MustByName(name)
		st := CollectStats(NewGenerator(m), 50000)
		if st.BranchFrac() > 0.35 {
			t.Errorf("%s: branch fraction %.2f too high", name, st.BranchFrac())
		}
		memFrac := float64(st.MemOps) / float64(st.Total)
		if memFrac < 0.05 || memFrac > 0.7 {
			t.Errorf("%s: memory fraction %.2f implausible", name, memFrac)
		}
		if m.Suite == SuiteFP && st.FPFrac() < 0.25 {
			t.Errorf("%s: FP fraction %.2f too low for SPECFP", name, st.FPFrac())
		}
		if m.Suite == SuiteInt && name != "eon" && st.FPFrac() > 0.1 {
			t.Errorf("%s: FP fraction %.2f too high for SPECINT", name, st.FPFrac())
		}
	}
}

// TestHasFPOpsMatchesProgram: the predicate, which reads only the loop
// specs, agrees with a scan of the built static program for every
// registered model, at its own seed and at the two perturbed seeds that
// replication seeds 1 and 2 select in the engine. Exactly
// eleven SPECINT models are FP-free: eon has FP chains.
func TestHasFPOpsMatchesProgram(t *testing.T) {
	free := 0
	for _, name := range AllBenchmarks() {
		m := MustByName(name)
		for _, perturb := range []uint64{0, 0x9e3779b97f4a7c15, 0x3c6ef372fe94f82a} {
			pm := m
			pm.Seed ^= perturb
			scan := false
			for _, si := range buildProgram(pm).insts {
				if si.class.Domain() == isa.FPDomain {
					scan = true
					break
				}
			}
			if got := pm.HasFPOps(); got != scan {
				t.Errorf("%s (seed %#x): HasFPOps = %t, static program scan = %t", name, pm.Seed, got, scan)
			}
		}
		if !m.HasFPOps() {
			free++
			if m.Suite != SuiteInt || name == "eon" {
				t.Errorf("%s (%v) reads as FP-free", name, m.Suite)
			}
		}
	}
	if free != 11 {
		t.Errorf("%d FP-free models, want the 11 SPECINT models other than eon", free)
	}
}

func TestBackEdgeTripCounts(t *testing.T) {
	// A single-loop model with TripCount k must take its back edge k-1
	// times out of every k executions.
	m := Model{Name: "t", Suite: SuiteInt, Seed: 7, Loops: []LoopSpec{{
		IntChains: 2, IntChainLen: 2, TripCount: 10,
	}}}
	g := NewGenerator(m)
	var in isa.Inst
	taken, total := 0, 0
	for i := 0; i < 30000; i++ {
		g.Next(&in)
		if in.Class == isa.Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	rate := float64(taken) / float64(total)
	if rate < 0.88 || rate > 0.92 {
		t.Fatalf("back-edge taken rate = %.3f, want ~0.9", rate)
	}
}

func TestStreamingAddressesStride(t *testing.T) {
	m := Model{Name: "t", Suite: SuiteFP, Seed: 9, Loops: []LoopSpec{{
		FPChains: 1, FPChainLen: 2, LoadHead: 1.0, TripCount: 1000,
		WorkingSetKB: 1024, StreamFrac: 1.0, StrideBytes: 16,
	}}}
	g := NewGenerator(m)
	var in isa.Inst
	var prev uint64
	seen := 0
	for i := 0; i < 2000 && seen < 100; i++ {
		g.Next(&in)
		if in.Class != isa.Load {
			continue
		}
		if seen > 0 && in.Addr != prev+16 {
			t.Fatalf("stride broken: %#x -> %#x", prev, in.Addr)
		}
		prev = in.Addr
		seen++
	}
	if seen < 100 {
		t.Fatal("did not observe enough loads")
	}
}

func TestStatsString(t *testing.T) {
	st := CollectStats(NewGenerator(MustByName("swim")), 10000)
	if s := st.String(); len(s) < 50 {
		t.Fatalf("stats report too short: %q", s)
	}
}

func BenchmarkGenerator(b *testing.B) {
	g := NewGenerator(MustByName("swim"))
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}
