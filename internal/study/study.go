// Package study orchestrates comparative experiment studies on top of
// the Client layer, so the same study runs unchanged against the
// in-process engine or a remote distiqd service.
//
// A strict-JSON Spec (or the New builder) describes one of two modes:
//
//   - ablation: a baseline machine plus named variants, each toggling a
//     feature set (scheme, ROB, widths, latencies, perfect
//     disambiguation) off the baseline, emitted as a deterministic
//     variant × metric table with per-variant deltas vs the baseline;
//   - replication: the same variants fanned out across R RNG seeds (the
//     scenario/engine Seed axis), reported as mean / stddev / 95% CI
//     columns, so scheme comparisons are statistical rather than
//     single-sample.
//
// A study is an ordered list of single-configuration scenario grids,
// baseline first, swept through any client.Client. Every number in an
// emitted table goes through a fixed-point formatter, so documents are
// byte-identical across parallelism, substrate and warm-cache reruns;
// the content-addressed engine makes a warm rerun of any study cost
// zero new simulations.
package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"distiq/internal/scenario"
)

// Variant is one named configuration of an ablation or replication
// study: a set of feature toggles applied over the study's baseline.
// Zero-valued fields keep the baseline's (and ultimately Table 1's)
// value; setting Scheme replaces the whole issue-queue organization
// (named configuration, or a parametric kind shaped by IntQ / Queues /
// Entries / Chains / Distr).
type Variant struct {
	Name string `json:"name"`

	// Scheme is a named configuration (IQ_unbounded, IQ_64_64, IF_distr,
	// MB_distr, ...) or a parametric kind (IssueFIFO, LatFIFO, MixBUFF).
	Scheme string `json:"scheme,omitempty"`
	// IntQ, Queues, Entries, Chains and Distr shape a parametric Scheme;
	// they are rejected alongside a named one.
	IntQ    string `json:"intq,omitempty"`
	Queues  int    `json:"queues,omitempty"`
	Entries int    `json:"entries,omitempty"`
	Chains  int    `json:"chains,omitempty"`
	Distr   bool   `json:"distr,omitempty"`

	// Whole-machine toggles (0 = inherit).
	ROB         int `json:"rob,omitempty"`
	FetchWidth  int `json:"fetch_width,omitempty"`
	IssueWidth  int `json:"issue_width,omitempty"`
	CommitWidth int `json:"commit_width,omitempty"`
	IntALUs     int `json:"int_alus,omitempty"`
	IntMuls     int `json:"int_muls,omitempty"`
	FPAdders    int `json:"fp_adders,omitempty"`
	FPMuls      int `json:"fp_muls,omitempty"`
	L1DLatency  int `json:"l1d_latency,omitempty"`
	L2Latency   int `json:"l2_latency,omitempty"`
	MemLatency  int `json:"mem_latency,omitempty"`
	// PerfectDisambiguation toggles the Section 5 oracle ablation
	// (nil = inherit).
	PerfectDisambiguation *bool `json:"perfect_disambiguation,omitempty"`
}

// Spec is a strict-JSON study description: a Baseline plus Variants,
// and for replication mode Seeds or Replicates. Suites/Benchmarks and
// Warmup/Instructions size every mode.
type Spec struct {
	// Name labels the study in reports.
	Name string `json:"name,omitempty"`
	// Mode is "ablation" or "replication".
	Mode string `json:"mode"`

	// Suites and Benchmarks select workloads, as in a scenario spec
	// (both empty = all 26).
	Suites     []string `json:"suites,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Baseline anchors ablation and replication studies; nil selects the
	// paper's IQ_64_64 evaluation baseline.
	Baseline *Variant `json:"baseline,omitempty"`
	// Variants are the named toggle sets compared against the baseline.
	Variants []Variant `json:"variants,omitempty"`

	// Seeds (explicit) or Replicates (seeds 0..R-1) define the
	// replication axis; replication mode requires at least two.
	Seeds      []uint64 `json:"seeds,omitempty"`
	Replicates int      `json:"replicates,omitempty"`

	// Warmup and Instructions size every simulation (defaults as in
	// scenario: 10000 and 60000).
	Warmup       *uint64 `json:"warmup,omitempty"`
	Instructions *uint64 `json:"instructions,omitempty"`
}

// Study modes.
const (
	ModeAblation    = "ablation"
	ModeReplication = "replication"
)

// DefaultReplicates is the replication seed count when a replication
// spec sets neither Seeds nor Replicates.
const DefaultReplicates = 3

// New returns an empty named Spec for builder-style assembly:
//
//	spec := study.New("scheme-ablation").
//		Ablation().
//		WithSuites("fp").
//		WithBaseline(study.Variant{Scheme: "IQ_64_64"}).
//		WithVariants(
//			study.Variant{Name: "proposed", Scheme: "MB_distr"},
//			study.Variant{Name: "small-rob", ROB: 128},
//		).
//		WithLengths(10_000, 60_000)
func New(name string) *Spec { return &Spec{Name: name} }

// Ablation and Replication select the study mode.
func (s *Spec) Ablation() *Spec    { s.Mode = ModeAblation; return s }
func (s *Spec) Replication() *Spec { s.Mode = ModeReplication; return s }

// WithSuites appends benchmark suites ("int", "fp" or "all").
func (s *Spec) WithSuites(suites ...string) *Spec {
	s.Suites = append(s.Suites, suites...)
	return s
}

// WithBenchmarks appends individual benchmarks.
func (s *Spec) WithBenchmarks(benches ...string) *Spec {
	s.Benchmarks = append(s.Benchmarks, benches...)
	return s
}

// WithBaseline sets the baseline variant (its Name defaults to
// "baseline").
func (s *Spec) WithBaseline(v Variant) *Spec { s.Baseline = &v; return s }

// WithVariants appends named variants.
func (s *Spec) WithVariants(vs ...Variant) *Spec {
	s.Variants = append(s.Variants, vs...)
	return s
}

// WithSeeds appends explicit replication seeds.
func (s *Spec) WithSeeds(seeds ...uint64) *Spec {
	s.Seeds = append(s.Seeds, seeds...)
	return s
}

// WithReplicates selects R replication seeds (0..R-1).
func (s *Spec) WithReplicates(r int) *Spec { s.Replicates = r; return s }

// WithLengths sets warmup and measured instruction counts.
func (s *Spec) WithLengths(warmup, instructions uint64) *Spec {
	s.Warmup, s.Instructions = &warmup, &instructions
	return s
}

// ParseSpec decodes a JSON study specification strictly: unknown fields
// are errors, as are all structural problems Validate detects.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("study: parse spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("study: parse spec: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a JSON study specification file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("study: read spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("study: spec %s: %w", path, err)
	}
	return s, nil
}

// JSON renders the spec as indented JSON (the format LoadSpec accepts).
func (s *Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// defaultBaseline is the paper's evaluation baseline: the conventional
// 64+64-entry CAM/RAM issue queue.
func defaultBaseline() Variant { return Variant{Name: "baseline", Scheme: "IQ_64_64"} }

// baseline returns the study's baseline variant, defaulting name and
// configuration.
func (s *Spec) baseline() Variant {
	b := defaultBaseline()
	if s.Baseline != nil {
		b = *s.Baseline
		if b.Name == "" {
			b.Name = "baseline"
		}
		if b.Scheme == "" {
			b.Scheme = "IQ_64_64"
		}
	}
	return b
}

// seedList resolves the replication seeds: explicit Seeds win, else
// Replicates (default DefaultReplicates) counts 0..R-1.
func (s *Spec) seedList() []uint64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	r := s.Replicates
	if r == 0 {
		r = DefaultReplicates
	}
	seeds := make([]uint64, r)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	return seeds
}

// overlay applies a variant's non-zero toggles over the baseline,
// producing the variant's effective configuration. Setting Scheme
// replaces the whole scheme shape (IntQ/Queues/Entries/Chains/Distr
// come along, even when zero — a parametric override must not inherit
// the baseline's shape fields).
func overlay(base, v Variant) Variant {
	eff := base
	eff.Name = v.Name
	if v.Scheme != "" {
		eff.Scheme, eff.IntQ = v.Scheme, v.IntQ
		eff.Queues, eff.Entries, eff.Chains = v.Queues, v.Entries, v.Chains
		eff.Distr = v.Distr
	}
	for _, f := range []struct {
		dst *int
		src int
	}{
		{&eff.ROB, v.ROB}, {&eff.FetchWidth, v.FetchWidth},
		{&eff.IssueWidth, v.IssueWidth}, {&eff.CommitWidth, v.CommitWidth},
		{&eff.IntALUs, v.IntALUs}, {&eff.IntMuls, v.IntMuls},
		{&eff.FPAdders, v.FPAdders}, {&eff.FPMuls, v.FPMuls},
		{&eff.L1DLatency, v.L1DLatency}, {&eff.L2Latency, v.L2Latency},
		{&eff.MemLatency, v.MemLatency},
	} {
		if f.src != 0 {
			*f.dst = f.src
		}
	}
	if v.PerfectDisambiguation != nil {
		eff.PerfectDisambiguation = v.PerfectDisambiguation
	}
	return eff
}

// variantSpec renders one effective variant as a single-configuration
// scenario spec over the study's benchmarks (and seeds, when given) —
// the unit a Client can sweep on any substrate.
func (s *Spec) variantSpec(eff Variant, seeds []uint64) *scenario.Spec {
	sp := scenario.New(eff.Name)
	sp.Suites = append([]string(nil), s.Suites...)
	sp.Benchmarks = append([]string(nil), s.Benchmarks...)
	ax := scenario.SchemeAxis{Scheme: eff.Scheme}
	if eff.Queues != 0 || eff.Entries != 0 || eff.Chains != 0 || eff.IntQ != "" || eff.Distr {
		ax.IntQ, ax.Distr = eff.IntQ, eff.Distr
		if eff.Queues != 0 {
			ax.Queues = []int{eff.Queues}
		}
		if eff.Entries != 0 {
			ax.Entries = []int{eff.Entries}
		}
		if eff.Chains != 0 {
			ax.Chains = []int{eff.Chains}
		}
	}
	sp.WithScheme(ax)
	for _, f := range []struct {
		v   int
		add func(...int) *scenario.Spec
	}{
		{eff.ROB, sp.WithROB}, {eff.FetchWidth, sp.WithFetchWidth},
		{eff.IssueWidth, sp.WithIssueWidth}, {eff.CommitWidth, sp.WithCommitWidth},
		{eff.IntALUs, sp.WithIntALUs}, {eff.IntMuls, sp.WithIntMuls},
		{eff.FPAdders, sp.WithFPAdders}, {eff.FPMuls, sp.WithFPMuls},
		{eff.L1DLatency, sp.WithL1DLatency}, {eff.L2Latency, sp.WithL2Latency},
		{eff.MemLatency, sp.WithMemLatency},
	} {
		if f.v != 0 {
			f.add(f.v)
		}
	}
	if eff.PerfectDisambiguation != nil && *eff.PerfectDisambiguation {
		sp.WithPerfectDisambiguation(true)
	}
	if len(seeds) > 0 {
		sp.WithSeeds(seeds...)
	}
	sp.Warmup, sp.Instructions = s.Warmup, s.Instructions
	return sp
}

// Validate checks the spec's structure without running anything: the
// mode must be known, variant names unique and expandable, and
// replication must have at least two seeds.
func (s *Spec) Validate() error {
	_, _, err := s.plan()
	return err
}

// plan validates the spec and expands its baseline-first variant list
// into one single-configuration grid per variant, over the study's
// benchmarks (and, for replication, its seeds): the grids Run sweeps
// and PlannedPoints counts.
func (s *Spec) plan() (names []string, grids []*scenario.Grid, err error) {
	switch s.Mode {
	case ModeAblation:
		if len(s.Variants) == 0 {
			return nil, nil, fmt.Errorf("study: ablation needs at least one variant")
		}
		if len(s.Seeds) > 0 || s.Replicates != 0 {
			return nil, nil, fmt.Errorf("study: seeds/replicates apply to replication mode only")
		}
	case ModeReplication:
	case "":
		return nil, nil, fmt.Errorf("study: spec has no mode (ablation or replication)")
	default:
		return nil, nil, fmt.Errorf("study: unknown mode %q (ablation or replication)", s.Mode)
	}
	if len(s.Seeds) > 0 && s.Replicates != 0 {
		return nil, nil, fmt.Errorf("study: seeds and replicates are mutually exclusive")
	}
	if s.Replicates < 0 || (s.Replicates != 0 && s.Replicates < 2) {
		return nil, nil, fmt.Errorf("study: replicates must be at least 2")
	}
	// Each replicate is a grid point of every variant, so a count past
	// the grid bound is refused before seedList sizes anything by it.
	if s.Replicates > scenario.MaxGridPoints {
		return nil, nil, fmt.Errorf("study: %d replicates exceed the %d points a grid may hold", s.Replicates, scenario.MaxGridPoints)
	}
	base := s.baseline()
	seen := map[string]bool{base.Name: true}
	for i, v := range s.Variants {
		if v.Name == "" {
			return nil, nil, fmt.Errorf("study: variants[%d] needs a name", i)
		}
		if seen[v.Name] {
			return nil, nil, fmt.Errorf("study: variant name %q repeats", v.Name)
		}
		seen[v.Name] = true
	}
	var seeds []uint64
	if s.Mode == ModeReplication {
		seeds = s.seedList()
		if len(seeds) < 2 {
			return nil, nil, fmt.Errorf("study: replication needs at least 2 seeds")
		}
	}
	for i, v := range append([]Variant{base}, s.Variants...) {
		eff := base
		if i > 0 {
			eff = overlay(base, v)
		}
		g, err := s.variantSpec(eff, seeds).Expand()
		if err != nil {
			return nil, nil, fmt.Errorf("study: variant %q: %w", eff.Name, err)
		}
		names = append(names, eff.Name)
		grids = append(grids, g)
	}
	return names, grids, nil
}

// PlannedPoints returns the number of simulation points the study
// requests: variants × benchmarks, times seeds for replication.
func (s *Spec) PlannedPoints() (int, error) {
	_, grids, err := s.plan()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, g := range grids {
		total += g.Size()
	}
	return total, nil
}
