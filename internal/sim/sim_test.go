package sim

import (
	"strings"
	"testing"

	"distiq/internal/core"
	"distiq/internal/trace"
)

func quickSession() *Session {
	return NewSession(Options{Warmup: 2000, Instructions: 10000})
}

func TestRunProducesSaneResult(t *testing.T) {
	r, err := Run("gzip", core.MBDistr(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "gzip" || r.Config != "MB_distr" {
		t.Fatalf("identity wrong: %+v", r.Run)
	}
	if r.IPC() <= 0.1 || r.IPC() > 8 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.IQEnergy <= 0 {
		t.Fatal("no issue-queue energy recorded")
	}
	if r.Breakdown().Empty() || r.IntBreakdown.Empty() {
		t.Fatal("empty breakdowns")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("nonesuch", core.Baseline64(), QuickOptions()); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestSessionMemoizes(t *testing.T) {
	s := quickSession()
	a, err := s.Result("swim", core.Baseline64())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Result("swim", core.Baseline64())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IQEnergy != b.IQEnergy {
		t.Fatal("memoized result differs")
	}
	st := s.EngineStats()
	if st.Simulated != 1 || st.MemoryHits != 1 {
		t.Fatalf("engine stats = %+v, want 1 simulated + 1 memory hit", st)
	}
}

func TestSuiteRunsOrdered(t *testing.T) {
	s := quickSession()
	runs, err := s.SuiteRuns(trace.SuiteInt, core.Unbounded())
	if err != nil {
		t.Fatal(err)
	}
	names := trace.Benchmarks(trace.SuiteInt)
	if len(runs) != len(names) {
		t.Fatalf("got %d runs, want %d", len(runs), len(names))
	}
	for i, r := range runs {
		if r.Benchmark != names[i] {
			t.Fatalf("run %d is %s, want %s", i, r.Benchmark, names[i])
		}
	}
}

func TestFigureBadNumber(t *testing.T) {
	s := quickSession()
	for _, n := range []int{0, 1, 5, 16} {
		if _, err := Figure(n, s); err == nil {
			t.Errorf("figure %d did not error", n)
		}
	}
}

func TestFigureNumbersComplete(t *testing.T) {
	ns := FigureNumbers()
	if len(ns) != 13 {
		t.Fatalf("expected 13 reproducible figures, got %d", len(ns))
	}
}

func TestBreakdownFigureComponents(t *testing.T) {
	s := quickSession()
	// Restrict to a cheap pseudo-suite by running the real figure on the
	// quick session (26 benchmarks x small runs is still fast).
	tab, err := Figure(11, s)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, row := range tab.Rows {
		labels[row.Label] = true
	}
	for _, want := range []string{"fifo", "buff", "Qrename", "regs_ready", "select", "chains"} {
		if !labels[want] {
			t.Errorf("MB_distr breakdown missing %q (have %v)", want, labels)
		}
	}
	// Percentages per column sum to ~100.
	for col := 0; col < 2; col++ {
		sum := 0.0
		for _, row := range tab.Rows {
			sum += row.Values[col]
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("column %d sums to %v, want 100", col, sum)
		}
	}
}

func TestIPCFigureShape(t *testing.T) {
	s := quickSession()
	tab, err := Figure(8, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	names := trace.Benchmarks(trace.SuiteFP)
	if len(tab.Rows) != len(names)+1 {
		t.Fatalf("rows = %d, want %d benchmarks + HARMEAN", len(tab.Rows), len(names))
	}
	if tab.Rows[len(tab.Rows)-1].Label != "HARMEAN" {
		t.Fatal("last row must be HARMEAN")
	}
	// MB_distr must beat IF_distr on the FP harmonic mean.
	hm := tab.Rows[len(tab.Rows)-1].Values
	if hm[2] <= hm[1] {
		t.Fatalf("MB_distr HM (%v) not above IF_distr (%v)", hm[2], hm[1])
	}
}

func TestEfficiencyFigureNormalization(t *testing.T) {
	s := quickSession()
	tab, err := Figure(13, s)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is the baseline itself: normalized energy exactly 1.
	if tab.Rows[0].Label != "IQ_64_64" {
		t.Fatalf("first row %s", tab.Rows[0].Label)
	}
	for _, v := range tab.Rows[0].Values {
		if v < 0.999 || v > 1.001 {
			t.Fatalf("baseline normalized energy = %v, want 1", v)
		}
	}
	// Distributed schemes must consume far less issue-queue energy.
	for i := 1; i < len(tab.Rows); i++ {
		for _, v := range tab.Rows[i].Values {
			if v >= 0.8 {
				t.Errorf("%s normalized energy %v not well below baseline",
					tab.Rows[i].Label, v)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Note: "n", RowName: "r", Columns: []string{"a", "b"}}
	tab.AddRow("x", 1.5, 2.25)
	out := tab.String()
	for _, want := range []string{"T", "n", "a", "b", "x", "1.500", "2.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	s := Table1()
	for _, want := range []string{"256 entries", "160 INT + 160 FP", "2K gshare",
		"8 integer + 8 FP", "512K", "100 cycles"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestBarsRendering(t *testing.T) {
	tab := Table{Title: "T", RowName: "r", Columns: []string{"a", "b"}}
	tab.AddRow("x", 10, 5)
	tab.AddRow("y", 0, 2.5)
	out := tab.Bars(20)
	if !strings.Contains(out, "####################") {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "##########") {
		t.Fatalf("half bar missing:\n%s", out)
	}
	// Zero draws no bar, small nonzero draws at least one mark.
	lines := strings.Split(out, "\n")
	foundZero := false
	for _, l := range lines {
		if strings.Contains(l, "| 0.000") {
			foundZero = true
		}
	}
	if !foundZero {
		t.Fatalf("zero value rendered a bar:\n%s", out)
	}
	if tab.Bars(0) == "" {
		t.Fatal("default width broken")
	}
}

func TestBarsEmptyTable(t *testing.T) {
	tab := Table{Title: "empty"}
	if out := tab.Bars(10); !strings.Contains(out, "empty") {
		t.Fatal("empty table render")
	}
}

func TestCycleTimeStudy(t *testing.T) {
	s := quickSession()
	tab, err := CycleTimeStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 5 cycle points + break-even
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// ED² must fall monotonically as the clock speeds up.
	for col := 0; col < 4; col++ {
		for i := 1; i < 5; i++ {
			if tab.Rows[i].Values[col] >= tab.Rows[i-1].Values[col] {
				t.Fatalf("column %d not monotone at row %d", col, i)
			}
		}
	}
	be := tab.Rows[5]
	if be.Label != "break-even" {
		t.Fatal("missing break-even row")
	}
	for _, v := range be.Values {
		if v <= 0.5 || v >= 1.2 {
			t.Fatalf("break-even %v implausible", v)
		}
	}
}

func TestCSVExport(t *testing.T) {
	tab := Table{RowName: "bench", Columns: []string{"a,b", "c"}}
	tab.AddRow("x", 1.25, 2)
	tab.AddRow(`q"uote`, 3, 4)
	out := tab.CSV()
	want := "bench,\"a,b\",c\nx,1.25,2\n\"q\"\"uote\",3,4\n"
	if out != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", out, want)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	// Two independent runs of the same benchmark × configuration must be
	// bit-identical: cycles, energy, every breakdown component.
	a, err := Run("fma3d", core.MBDistr(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fma3d", core.MBDistr(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts || a.IQEnergy != b.IQEnergy {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a.Run, b.Run)
	}
	if a.IntBreakdown != b.IntBreakdown || a.FPBreakdown != b.FPBreakdown {
		t.Fatalf("breakdowns differ:\n%v\nvs\n%v", a.Breakdown(), b.Breakdown())
	}
}

func TestLossSweepFigureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSession(Options{Warmup: 1000, Instructions: 5000})
	tab, err := Figure(4, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 6 {
		t.Fatalf("columns = %v, want the 6-point sweep", tab.Columns)
	}
	names := trace.Benchmarks(trace.SuiteFP)
	if len(tab.Rows) != len(names)+1 {
		t.Fatalf("rows = %d, want %d + HMEAN", len(tab.Rows), len(names))
	}
	if tab.Rows[len(tab.Rows)-1].Label != "HMEAN" {
		t.Fatal("missing HMEAN row")
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 6 {
			t.Fatalf("row %s has %d values", r.Label, len(r.Values))
		}
		for _, v := range r.Values {
			if v < -20 || v > 100 {
				t.Fatalf("row %s: loss %v%% out of range", r.Label, v)
			}
		}
	}
}
