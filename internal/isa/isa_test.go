package isa

import (
	"strings"
	"testing"
)

func TestClassDomains(t *testing.T) {
	intClasses := []Class{IntALU, IntMult, IntDiv, Load, Store, Branch}
	for _, c := range intClasses {
		if c.Domain() != IntDomain {
			t.Errorf("%v domain = %v, want int", c, c.Domain())
		}
	}
	fpClasses := []Class{FPAdd, FPMult, FPDiv}
	for _, c := range fpClasses {
		if c.Domain() != FPDomain {
			t.Errorf("%v domain = %v, want fp", c, c.Domain())
		}
	}
}

func TestClassFU(t *testing.T) {
	cases := map[Class]FUKind{
		IntALU:  IntALUUnit,
		IntMult: IntMulUnit,
		IntDiv:  IntMulUnit,
		FPAdd:   FPAddUnit,
		FPMult:  FPMulUnit,
		FPDiv:   FPMulUnit,
		Load:    IntALUUnit,
		Store:   IntALUUnit,
		Branch:  IntALUUnit,
	}
	for c, want := range cases {
		if got := c.FU(); got != want {
			t.Errorf("%v FU = %v, want %v", c, got, want)
		}
	}
}

func TestDefaultLatenciesMatchTable1(t *testing.T) {
	l := DefaultLatencies()
	want := map[Class]int{
		IntALU: 1, IntMult: 3, IntDiv: 20,
		FPAdd: 2, FPMult: 4, FPDiv: 12,
		Load: 1, Store: 1, Branch: 1,
	}
	for c, w := range want {
		if l[c] != w {
			t.Errorf("latency[%v] = %d, want %d", c, l[c], w)
		}
	}
}

func TestIsMem(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		want := c == Load || c == Store
		if c.IsMem() != want {
			t.Errorf("%v IsMem = %v, want %v", c, c.IsMem(), want)
		}
	}
}

func TestStringNames(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "Class(") {
			t.Errorf("class %d has no name", c)
		}
	}
	for k := FUKind(0); k < NumFUKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "FUKind(") {
			t.Errorf("fu kind %d has no name", k)
		}
	}
	if IntDomain.String() != "int" || FPDomain.String() != "fp" {
		t.Error("domain names wrong")
	}
	if !strings.HasPrefix(Class(200).String(), "Class(") {
		t.Error("out-of-range class should format as Class(n)")
	}
	if !strings.HasPrefix(FUKind(200).String(), "FUKind(") {
		t.Error("out-of-range FU kind should format as FUKind(n)")
	}
	if !strings.HasPrefix(Domain(9).String(), "Domain(") {
		t.Error("out-of-range domain should format as Domain(n)")
	}
}

func TestInstSourceCounting(t *testing.T) {
	in := &Inst{Src1: 3, Src2: NoReg, Dest: 7}
	if in.NumSources() != 1 {
		t.Errorf("NumSources = %d, want 1", in.NumSources())
	}
	if !in.HasDest() {
		t.Error("HasDest = false, want true")
	}
	in.Src2 = 4
	if in.NumSources() != 2 {
		t.Errorf("NumSources = %d, want 2", in.NumSources())
	}
	in.Dest = NoReg
	if in.HasDest() {
		t.Error("HasDest = true, want false")
	}
}

func TestResetMicro(t *testing.T) {
	in := &Inst{
		Class: Load, Src1: 1, Dest: 2,
		PSrc1: 5, PDest: 9, Mispredicted: true, Issued: true,
		Completed: true, FetchCycle: 10, QueueID: 3, ChainID: 2,
		AgeID: 77,
	}
	in.ResetMicro()
	if in.PSrc1 != NoReg || in.PDest != NoReg || in.POld != NoReg {
		t.Error("physical registers not reset")
	}
	if in.Mispredicted || in.Issued || in.Completed {
		t.Error("status flags not reset")
	}
	if in.FetchCycle != 0 || in.QueueID != -1 || in.ChainID != -1 || in.AgeID != 0 {
		t.Error("timing/placement not reset")
	}
	// Architectural fields must survive.
	if in.Class != Load || in.Src1 != 1 || in.Dest != 2 {
		t.Error("architectural fields were clobbered")
	}
}
