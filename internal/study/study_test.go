package study

import (
	"strings"
	"testing"
)

// TestParseSpecStrict rejects structural problems at parse time: unknown
// fields, trailing data and every per-mode constraint.
func TestParseSpecStrict(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"unknown field", `{"mode":"ablation","varaints":[]}`, "unknown field"},
		{"trailing data", `{"mode":"ablation","variants":[{"name":"v","rob":128}]} {}`, "trailing data"},
		{"no mode", `{}`, "no mode"},
		{"bad mode", `{"mode":"sweep"}`, `unknown mode "sweep"`},
		{"ablation no variants", `{"mode":"ablation"}`, "at least one variant"},
		{"ablation with seeds", `{"mode":"ablation","seeds":[0,1],"variants":[{"name":"v","rob":128}]}`, "replication mode only"},
		{"ablation with space", `{"mode":"ablation","variants":[{"name":"v","rob":128}],"budget":4}`, `unknown field "budget"`},
		{"unnamed variant", `{"mode":"ablation","variants":[{"rob":128}]}`, "needs a name"},
		{"duplicate variant", `{"mode":"ablation","variants":[{"name":"v","rob":128},{"name":"v","rob":256}]}`, `name "v" repeats`},
		{"baseline name collision", `{"mode":"ablation","variants":[{"name":"baseline","rob":128}]}`, `name "baseline" repeats`},
		{"bad variant machine", `{"mode":"ablation","variants":[{"name":"v","rob":100}]}`, `variant "v"`},
		{"bad variant scheme", `{"mode":"ablation","variants":[{"name":"v","scheme":"Nope"}]}`, `unknown scheme`},
		{"distr on named scheme", `{"mode":"ablation","variants":[{"name":"v","scheme":"IQ_64_64","distr":true}]}`, "no queue shape"},
		{"seeds and replicates", `{"mode":"replication","replicates":3,"seeds":[1,2],"variants":[{"name":"v","rob":128}]}`, "mutually exclusive"},
		{"one replicate", `{"mode":"replication","replicates":1,"variants":[{"name":"v","rob":128}]}`, "at least 2"},
		{"one seed", `{"mode":"replication","seeds":[7],"variants":[{"name":"v","rob":128}]}`, "at least 2 seeds"},
		// One replicate past the grid bound is refused by count, before
		// a seed list is sized by it.
		{"replicates past the grid bound", `{"mode":"replication","replicates":65537,"benchmarks":["swim"],"variants":[{"name":"v","rob":128}]}`,
			"65537 replicates exceed the 65536 points a grid may hold"},
		// The retired frontier mode and its space/budget/batch fields are
		// rejected like any other unknown mode or field.
		{"frontier no space", `{"mode":"frontier"}`, `unknown mode "frontier"`},
		{"frontier with variants", `{"mode":"frontier","variants":[{"name":"v"}],"space":{"scheme":"LatFIFO","queues":[4,8]}}`, `unknown field "space"`},
		{"frontier bad scheme", `{"mode":"frontier","space":{"scheme":"IQ_64_64","queues":[4,8]}}`, `unknown field "space"`},
		{"frontier unsearchable", `{"mode":"frontier","space":{"scheme":"LatFIFO","queues":[8]}}`, `unknown field "space"`},
		{"frontier chains non-mixbuff", `{"mode":"frontier","space":{"scheme":"LatFIFO","chains":[2,4]}}`, `unknown field "space"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.spec))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseSpecRoundTrip pins that builder-assembled specs survive a
// JSON round trip byte-identically.
func TestParseSpecRoundTrip(t *testing.T) {
	pd := true
	specs := []*Spec{
		New("ab").Ablation().WithBenchmarks("swim", "gzip").
			WithVariants(
				Variant{Name: "small-rob", ROB: 128},
				Variant{Name: "mb", Scheme: "MB_distr"},
				Variant{Name: "oracle", PerfectDisambiguation: &pd},
			).WithLengths(100, 1000),
		New("rep").Replication().WithBenchmarks("swim").
			WithVariants(Variant{Name: "if", Scheme: "IF_distr"}).
			WithReplicates(3).WithLengths(100, 1000),
	}
	for _, s := range specs {
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		again, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(again) {
			t.Fatalf("%s did not round-trip:\n%s\nvs\n%s", s.Name, data, again)
		}
	}
}

// TestOverlaySemantics pins the variant overlay: zero fields inherit,
// a new scheme replaces the whole queue shape, pointers override.
func TestOverlaySemantics(t *testing.T) {
	pdOn := true
	base := Variant{Name: "baseline", Scheme: "MixBUFF", Queues: 8, Entries: 16, Chains: 4, ROB: 256}
	v := overlay(base, Variant{Name: "wide", FetchWidth: 8})
	if v.Scheme != "MixBUFF" || v.Queues != 8 || v.Chains != 4 || v.ROB != 256 || v.FetchWidth != 8 {
		t.Fatalf("machine overlay broke inheritance: %+v", v)
	}
	v = overlay(base, Variant{Name: "named", Scheme: "IQ_64_64"})
	if v.Queues != 0 || v.Entries != 0 || v.Chains != 0 {
		t.Fatalf("scheme replacement leaked baseline shape: %+v", v)
	}
	if v.ROB != 256 {
		t.Fatalf("scheme replacement clobbered machine fields: %+v", v)
	}
	v = overlay(base, Variant{Name: "oracle", PerfectDisambiguation: &pdOn})
	if v.PerfectDisambiguation == nil || !*v.PerfectDisambiguation {
		t.Fatalf("pointer overlay missed: %+v", v)
	}
}

// TestPlannedPoints counts up-front work: variants × benchmarks
// (× seeds for replication).
func TestPlannedPoints(t *testing.T) {
	ab := New("ab").Ablation().WithBenchmarks("swim", "gzip").
		WithVariants(Variant{Name: "v", ROB: 128}).WithLengths(100, 1000)
	if n, err := ab.PlannedPoints(); err != nil || n != 2*2 {
		t.Fatalf("ablation planned %d (%v), want 4", n, err)
	}
	rep := New("rep").Replication().WithBenchmarks("swim").
		WithVariants(Variant{Name: "v", ROB: 128}).WithReplicates(3).WithLengths(100, 1000)
	if n, err := rep.PlannedPoints(); err != nil || n != 2*1*3 {
		t.Fatalf("replication planned %d (%v), want 6", n, err)
	}
}

// FuzzParseStudySpec throws arbitrary bytes at the strict parser: it
// must never panic, and anything it accepts must re-validate and render
// back to JSON.
func FuzzParseStudySpec(f *testing.F) {
	f.Add([]byte(`{"mode":"ablation","variants":[{"name":"v","rob":128}]}`))
	f.Add([]byte(`{"mode":"replication","replicates":3,"benchmarks":["swim"],"variants":[{"name":"mb","scheme":"MB_distr"}]}`))
	// Specs of the retired frontier mode, which the parser must reject.
	f.Add([]byte(`{"mode":"frontier","space":{"scheme":"LatFIFO","queues":[4,8],"entries":[8,16]},"budget":6}`))
	f.Add([]byte(`{"mode":"frontier","space":{"scheme":"MixBUFF","chains":[2,4]},"batch":2}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v", err)
		}
		if _, err := s.JSON(); err != nil {
			t.Fatalf("accepted spec fails to render: %v", err)
		}
	})
}
