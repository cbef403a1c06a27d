package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"distiq/internal/engine"
)

func TestParseSpecStrict(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown axis", `{"schemes": [{"scheme": "MB_distr"}], "robz": [128]}`, "robz"},
		{"unknown scheme", `{"schemes": [{"scheme": "SuperQ"}]}`, "unknown scheme"},
		{"unknown benchmark", `{"schemes": [{"scheme": "MB_distr"}], "benchmarks": ["nonesuch"]}`, "nonesuch"},
		{"unknown suite", `{"schemes": [{"scheme": "MB_distr"}], "suites": ["vector"]}`, "unknown suite"},
		{"no schemes", `{"rob": [128]}`, "no schemes"},
		{"negative rob", `{"schemes": [{"scheme": "MB_distr"}], "rob": [-1]}`, "not positive"},
		{"duplicate rob", `{"schemes": [{"scheme": "MB_distr"}], "rob": [128, 128]}`, "repeats"},
		{"duplicate pdis", `{"schemes": [{"scheme": "MB_distr"}], "perfect_disambiguation": [true, true]}`, "repeats"},
		{"shape on named", `{"schemes": [{"scheme": "MB_distr", "queues": [8]}]}`, "no queue shape"},
		{"distr on named", `{"schemes": [{"scheme": "IQ_64_64", "distr": true}]}`, "no queue shape"},
		{"chains on fifo", `{"schemes": [{"scheme": "IssueFIFO", "chains": [4]}]}`, "only to MixBUFF"},
		{"bad intq", `{"schemes": [{"scheme": "MixBUFF", "intq": "8by8"}]}`, "queue shape"},
		{"trailing data", `{"schemes": [{"scheme": "MB_distr"}]} {"x": 1}`, "trailing"},
		{"not json", `schemes: [MB_distr]`, "parse spec"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"name": "demo",
		"suites": ["fp"],
		"benchmarks": ["gzip"],
		"schemes": [
			{"scheme": "MB_distr"},
			{"scheme": "MixBUFF", "intq": "8x8", "queues": [8, 12], "entries": [16], "chains": [8], "distr": true}
		],
		"rob": [128, 256],
		"perfect_disambiguation": [false, true],
		"warmup": 1000,
		"instructions": 2000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// (1 named + 2 parametric) scheme points x 2 rob x 2 pdis x (14 fp + gzip).
	if want := 3 * 2 * 2 * 15; grid.Size() != want {
		t.Fatalf("grid size = %d, want %d", grid.Size(), want)
	}
	wantAxes := []string{"scheme", "queues", "entries", "chains", "rob", "perfect_disambig"}
	if !reflect.DeepEqual(grid.Axes, wantAxes) {
		t.Fatalf("axes = %v", grid.Axes)
	}
	// Every point carries a machine override here (rob always set).
	for _, p := range grid.Points {
		if p.Machine == nil || p.Machine.ROBSize == 0 {
			t.Fatalf("point missing machine override: %+v", p)
		}
		if len(p.Values) != len(grid.Axes) {
			t.Fatalf("point values misaligned: %v vs %v", p.Values, grid.Axes)
		}
	}
	// Benchmarks are innermost: first two points differ only by bench.
	if grid.Points[0].Bench == grid.Points[1].Bench {
		t.Fatal("benchmark is not the innermost axis")
	}
	if !reflect.DeepEqual(grid.Points[0].Values, grid.Points[1].Values) {
		t.Fatal("adjacent benchmark points should share axis values")
	}
}

func TestExpandRejectsInvalidMachine(t *testing.T) {
	s := New("bad-rob").WithNamed("MB_distr").WithROB(100) // not a power of two
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("err = %v, want power-of-two rejection", err)
	}
	s2 := New("bad-width").WithNamed("MB_distr")
	s2.FetchWidth = []int{-2}
	if _, err := s2.Expand(); err == nil {
		t.Fatal("negative width accepted")
	}
}

// axis renders the JSON array 1..n.
func axis(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	return "[" + strings.Join(vals, ",") + "]"
}

// TestOversizedSpecRejected: a spec cannot make Expand build, or a
// worker allocate, without bound. The grid-size cases go through
// ParseSpec only, since an Expand that let them through would build
// every point.
func TestOversizedSpecRejected(t *testing.T) {
	at := fmt.Sprintf(`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}], "l1d_latency": %s, "l2_latency": %s`, axis(256), axis(256))
	if _, err := ParseSpec([]byte(at + "}")); err != nil {
		t.Fatalf("a grid of exactly %d points was rejected: %v", MaxGridPoints, err)
	}
	every := `{"schemes": [{"scheme": "MB_distr"}]`
	for _, ax := range machineAxes {
		every += fmt.Sprintf(",%q: %s", ax.name, axis(1000))
	}
	for name, src := range map[string]string{
		"one seed too many": at + `, "seeds": [0, 1]}`,
		"three latency axes": fmt.Sprintf(`{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
			"l1d_latency": %s, "l2_latency": %s, "mem_latency": %s}`, axis(1000), axis(1000), axis(1000)),
		// 26 × 1000^11 points overflow an unsaturated product.
		"every machine axis": every + "}",
		"parametric shapes":  fmt.Sprintf(`{"benchmarks": ["swim"], "schemes": [{"scheme": "MixBUFF", "queues": %s, "entries": %s, "chains": [0, 1]}]}`, axis(256), axis(256)),
	} {
		if _, err := ParseSpec([]byte(src)); err == nil || !strings.Contains(err.Error(), "more than 65536 points") {
			t.Errorf("%s: err = %v, want the grid-size bound", name, err)
		}
	}

	for _, c := range []struct {
		spec    *Spec
		wantErr string
	}{
		{New("").WithNamed("MB_distr").WithROB(1 << 30), "ROB of 1073741824 entries"},
		{New("").WithNamed("MB_distr").WithIntALUs(65), "65 IntALU units"},
		{New("").WithScheme(SchemeAxis{Scheme: "MixBUFF", Queues: []int{4097}}), "4097x16 queue entries"},
		{New("").WithScheme(SchemeAxis{Scheme: "IssueFIFO", Queues: []int{64}, Entries: []int{65}}), "64x65 queue entries"},
		{New("").WithScheme(SchemeAxis{Scheme: "LatFIFO", IntQ: "1x4097"}), "1x4097 queue entries"},
	} {
		if _, err := c.spec.WithBenchmarks("swim").Expand(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("err = %v, want substring %q", err, c.wantErr)
		}
	}
}

// TestRepeatedSchemesRejected: two schemes-axis entries that resolve to
// one configuration would print identical rows, so Expand refuses them
// and names both; entries that differ in any part of the configuration
// stay valid.
func TestRepeatedSchemesRejected(t *testing.T) {
	mb := func(q, e []int, chains ...int) SchemeAxis {
		return SchemeAxis{Scheme: "MixBUFF", Queues: q, Entries: e, Chains: chains}
	}
	for name, c := range map[string]struct {
		axes []SchemeAxis
		want string
	}{
		"alias":   {[]SchemeAxis{{Scheme: "IQ_64_64"}, {Scheme: "baseline"}}, "schemes[0] and schemes[1] both resolve to IQ_64_64"},
		"literal": {[]SchemeAxis{{Scheme: "MB_distr"}, {Scheme: "IF_distr"}, {Scheme: "MB_distr"}}, "schemes[0] and schemes[2] both resolve to MB_distr"},
		"unbounded alias": {[]SchemeAxis{{Scheme: "IF_distr"}, {Scheme: "unbounded"}, {Scheme: "IQ_unbounded"}},
			"schemes[1] and schemes[2] both resolve to IQ_unbounded"},
		"overlapping shapes": {[]SchemeAxis{mb([]int{4, 8}, []int{8, 16}, 0, 2), mb([]int{8}, []int{16}, 2)},
			"schemes[0] and schemes[1] both resolve to MixBUFF_8x8_8x16 (chains 2)"},
		"default shape": {[]SchemeAxis{{Scheme: "IssueFIFO", IntQ: "8x8", Queues: []int{8}, Entries: []int{16}, Chains: []int{0}},
			{Scheme: "IssueFIFO"}}, "schemes[0] and schemes[1] both resolve to IssueFIFO_8x8_8x16"},
		"spelled intq": {[]SchemeAxis{{Scheme: "LatFIFO", Distr: true}, {Scheme: "LatFIFO", IntQ: "08x8", Distr: true}},
			"schemes[0] and schemes[1] both resolve to LatFIFO_8x8_8x16_distr"},
		"distinct": {[]SchemeAxis{
			{Scheme: "IssueFIFO"}, {Scheme: "LatFIFO"}, {Scheme: "IssueFIFO", Distr: true},
			{Scheme: "IssueFIFO", IntQ: "4x16"}, mb(nil, nil), mb(nil, nil, 16), mb(nil, nil, 8),
			{Scheme: "MixBUFF", Queues: []int{8}, Entries: []int{16}, Chains: []int{8}, Distr: true},
			{Scheme: "MB_distr"}, {Scheme: "IF_distr"}, {Scheme: "IQ_64_64"}, {Scheme: "IQ_unbounded"},
		}, ""},
	} {
		spec := New("").WithBenchmarks("swim")
		for _, ax := range c.axes {
			spec.WithScheme(ax)
		}
		_, err := spec.Expand()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if err == nil || err.Error() != "scenario: "+c.want {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}

func TestBuilderMatchesJSON(t *testing.T) {
	b := New("demo").
		WithSuites("fp").
		WithNamed("MB_distr", "IQ_64_64").
		WithROB(128, 256).
		WithPerfectDisambiguation(false, true).
		WithLengths(1000, 2000)
	data, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("builder spec does not round-trip: %v\n%s", err, data)
	}
	g1, err := b.Expand()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := parsed.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Size() != g2.Size() || !reflect.DeepEqual(g1.Axes, g2.Axes) {
		t.Fatalf("builder and JSON grids differ: %d/%v vs %d/%v",
			g1.Size(), g1.Axes, g2.Size(), g2.Axes)
	}
}

// TestSpecJSONRoundTripByteIdentical pins that Spec.JSON is canonical:
// parsing a rendered spec back through the strict parser and rendering
// it again reproduces the bytes exactly. The specs cover parametric
// scheme axes with suites or benchmarks, distributed FUs, a non-default
// integer side and non-default lengths. A drift here would mean JSON
// emits fields the parser normalizes away (or vice versa).
func TestSpecJSONRoundTripByteIdentical(t *testing.T) {
	specs := []*Spec{
		New("").WithScheme(SchemeAxis{Scheme: "MixBUFF", IntQ: "16x16",
			Queues: []int{4, 8}, Entries: []int{8, 16}, Chains: []int{0, 8}, Distr: true}).
			WithSuites("fp").WithLengths(10_000, 60_000),
		New("").WithScheme(SchemeAxis{Scheme: "IssueFIFO", IntQ: "16x16",
			Queues: []int{8}, Entries: []int{8}, Chains: []int{0}}).
			WithBenchmarks("swim", "gzip").WithLengths(10_000, 60_000),
		New("").WithScheme(SchemeAxis{Scheme: "LatFIFO", IntQ: "8x8",
			Queues: []int{2, 4, 8}, Entries: []int{32}, Chains: []int{0}}).
			WithLengths(5_000, 30_000),
	}
	for i, s := range specs {
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("spec %d does not parse back: %v\n%s", i, err, data)
		}
		again, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("spec %d round trip is not byte-identical:\nrendered:\n%s\nre-rendered:\n%s", i, data, again)
		}
	}
}

// stubEngine returns an engine whose simulator fabricates deterministic
// results from the job identity, so emitter tests need no real runs.
func stubEngine(workers int) *engine.Engine {
	return engine.New(engine.Config{
		Workers: workers,
		Simulate: func(j engine.Job) (engine.Result, error) {
			var r engine.Result
			r.Benchmark = j.Bench
			r.Config = j.Config.Name
			r.Insts = j.Opt.Instructions
			r.Cycles = j.Opt.Instructions/2 + uint64(len(j.Key())%7)
			r.IQEnergy = float64(len(j.Key()))
			return r, nil
		},
	})
}

// resolve runs the grid's jobs on e and pairs their results with the
// grid, in point order, as a sweep's stream assembles them.
func resolve(t *testing.T, g *Grid, e *engine.Engine) *ResultSet {
	t.Helper()
	results, err := e.ResultAll(g.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	return &ResultSet{Grid: g, Results: results}
}

func testGrid(t *testing.T) *Grid {
	t.Helper()
	s := New("emit").
		WithBenchmarks("swim", "gzip").
		WithNamed("IQ_64_64").
		WithScheme(SchemeAxis{Scheme: "MixBUFF", Queues: []int{8}, Entries: []int{16}, Chains: []int{8}}).
		WithROB(128, 256).
		WithLengths(100, 200)
	g, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmitters(t *testing.T) {
	g := testGrid(t)
	rs := resolve(t, g, stubEngine(4))
	csv := rs.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "scheme,queues,entries,chains,rob,benchmark,ipc,iq_energy_pj,cycles" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+g.Size() {
		t.Fatalf("csv rows = %d, want %d", len(lines)-1, g.Size())
	}
	if !strings.HasPrefix(lines[1], "IQ_64_64,1,64,0,128,swim,") {
		t.Fatalf("first row = %q", lines[1])
	}

	md := rs.Markdown()
	if !strings.HasPrefix(md, "### emit\n") || !strings.Contains(md, "| scheme |") {
		t.Fatalf("markdown = %q", md)
	}

	js, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "emit"`, `"benchmark": "swim"`, `"rob": "128"`} {
		if !strings.Contains(string(js), want) {
			t.Fatalf("json missing %s:\n%s", want, js)
		}
	}
	// Run-varying engine counters must stay out of the document so warm
	// reruns emit byte-identical JSON.
	if strings.Contains(string(js), "simulated") {
		t.Fatalf("json leaks engine counters:\n%s", js)
	}
}

// TestLengthSemantics pins the unset-vs-zero contract: missing lengths
// take the defaults, an explicit zero warmup is honored, and zero
// measured instructions are rejected.
func TestLengthSemantics(t *testing.T) {
	s, err := ParseSpec([]byte(`{"schemes": [{"scheme": "MB_distr"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if opt := s.Opt(); opt.Warmup != DefaultWarmup || opt.Instructions != DefaultInstructions {
		t.Fatalf("unset lengths = %+v", opt)
	}
	s, err = ParseSpec([]byte(`{"schemes": [{"scheme": "MB_distr"}], "warmup": 0, "instructions": 500}`))
	if err != nil {
		t.Fatal(err)
	}
	if opt := s.Opt(); opt.Warmup != 0 || opt.Instructions != 500 {
		t.Fatalf("explicit zero warmup not honored: %+v", opt)
	}
	if opt := New("b").WithLengths(0, 500).Opt(); opt.Warmup != 0 || opt.Instructions != 500 {
		t.Fatalf("builder zero warmup not honored: %+v", opt)
	}
	if _, err := ParseSpec([]byte(`{"schemes": [{"scheme": "MB_distr"}], "instructions": 0}`)); err == nil ||
		!strings.Contains(err.Error(), "instructions must be positive") {
		t.Fatalf("zero instructions accepted: %v", err)
	}
}

// TestRunDeterministicAcrossParallelism asserts the acceptance property
// the engine guarantees: grid output bytes are identical at any worker
// count, and identical points dedup to one simulation.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	g := testGrid(t)
	serial := resolve(t, g, stubEngine(1))
	wide := stubEngine(8)
	parallel := resolve(t, g, wide)
	if serial.CSV() != parallel.CSV() {
		t.Fatal("grid CSV differs between serial and parallel runs")
	}
	if st := wide.Stats(); st.Simulated != int64(g.Size()) {
		t.Fatalf("stub engine simulated %d, want %d", st.Simulated, g.Size())
	}
}

// TestGridJobsShareMachinePointers documents that points of one machine
// combination share a single Machine value, so a 10k-point grid does not
// allocate 10k override structs.
func TestGridJobsShareMachinePointers(t *testing.T) {
	g := testGrid(t)
	if g.Points[0].Machine != g.Points[1].Machine {
		t.Fatal("adjacent benchmark points should share the machine override")
	}
}

func ExampleSpec() {
	spec := New("rob-ablation").
		WithBenchmarks("swim").
		WithNamed("MB_distr").
		WithROB(128, 256).
		WithLengths(100, 200)
	grid, err := spec.Expand()
	if err != nil {
		panic(err)
	}
	fmt.Println(strings.Join(grid.Axes, ","))
	fmt.Println(grid.Size())
	// Output:
	// scheme,queues,entries,chains,rob
	// 2
}

// TestEmitWriterParity pins the io.Writer emitter — the single code path
// every front end shares — to the string emitters, including the JSON
// trailing newline and the format names.
func TestEmitWriterParity(t *testing.T) {
	g := testGrid(t)
	rs := resolve(t, g, stubEngine(4))

	js, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"csv":      rs.CSV(),
		"json":     string(js) + "\n",
		"md":       rs.Markdown(),
		"markdown": rs.Markdown(),
	}
	for format, body := range want {
		var b strings.Builder
		if err := rs.Emit(&b, format); err != nil {
			t.Fatalf("Emit(%s): %v", format, err)
		}
		if b.String() != body {
			t.Errorf("Emit(%s) differs from the string emitter:\n%s\nvs\n%s", format, b.String(), body)
		}
	}

	var b strings.Builder
	if err := rs.Emit(&b, "yaml"); err == nil || !strings.Contains(err.Error(), `unknown format "yaml"`) {
		t.Fatalf("unknown format accepted: %v", err)
	}

	for _, format := range Formats {
		if !IsFormat(format) {
			t.Errorf("Formats entry %q is not a format", format)
		}
	}
	if !IsFormat("markdown") {
		t.Error("IsFormat rejected the markdown alias")
	}
	if IsFormat("yaml") {
		t.Error("IsFormat accepted yaml")
	}
}
