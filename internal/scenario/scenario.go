// Package scenario provides declarative experiment grids over the full
// machine. A Spec — parsed from JSON or assembled with the builder API —
// names axes over benchmarks/suites, issue-queue schemes and shapes, and
// whole-processor parameters (ROB size, widths, functional-unit counts,
// memory latencies, the perfect-disambiguation ablation). Expand crosses
// every axis into a Grid of engine jobs; Run shards the grid across the
// concurrent engine's worker pool (reusing its in-memory and on-disk
// caches) and returns a ResultSet with CSV, JSON and markdown emitters.
//
// The paper fixes the Table 1 machine and varies only the issue-queue
// organization; scenario grids open the rest of the machine to the same
// cached, deterministic sweep infrastructure.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/trace"
)

// SchemeAxis describes one issue-queue organization axis of a grid. A
// named entry (Scheme one of IQ_unbounded, IQ_64_64, IF_distr, MB_distr)
// contributes exactly that configuration. A parametric entry (IssueFIFO,
// LatFIFO or MixBUFF) expands over Queues × Entries (× Chains for
// MixBUFF) on the FP side, with the integer side fixed by IntQ.
type SchemeAxis struct {
	// Scheme is a named configuration or a parametric scheme kind.
	Scheme string `json:"scheme"`
	// IntQ fixes the integer queues as "AxB" (default "8x8").
	IntQ string `json:"intq,omitempty"`
	// Queues and Entries are the FP queue-count and entries-per-queue
	// values to sweep (defaults: 8 and 16).
	Queues  []int `json:"queues,omitempty"`
	Entries []int `json:"entries,omitempty"`
	// Chains bounds dependence chains per FP queue (MixBUFF only;
	// 0 = unbounded).
	Chains []int `json:"chains,omitempty"`
	// Distr distributes functional units across queues (parametric
	// schemes only: a named configuration fixes its own wiring).
	Distr bool `json:"distr,omitempty"`
}

// Spec is a declarative experiment grid: the cross-product of every
// populated axis. Empty machine axes keep the paper's Table 1 value and
// contribute no output column.
type Spec struct {
	// Name labels the grid in reports.
	Name string `json:"name,omitempty"`
	// Suites selects whole benchmark suites: "int", "fp" or "all".
	Suites []string `json:"suites,omitempty"`
	// Benchmarks selects individual benchmarks (unioned with Suites;
	// both empty = all 26).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Schemes lists the issue-queue organizations to sweep.
	Schemes []SchemeAxis `json:"schemes"`

	// Machine axes (cross-multiplied; zero-length = Table 1 default).
	ROB         []int `json:"rob,omitempty"`          // reorder-buffer entries (power of two)
	FetchWidth  []int `json:"fetch_width,omitempty"`  // fetch and dispatch width
	IssueWidth  []int `json:"issue_width,omitempty"`  // issue width, both domains
	CommitWidth []int `json:"commit_width,omitempty"` // commit width
	IntALUs     []int `json:"int_alus,omitempty"`
	IntMuls     []int `json:"int_muls,omitempty"`
	FPAdders    []int `json:"fp_adders,omitempty"`
	FPMuls      []int `json:"fp_muls,omitempty"`
	L1DLatency  []int `json:"l1d_latency,omitempty"` // cycles
	L2Latency   []int `json:"l2_latency,omitempty"`  // cycles
	MemLatency  []int `json:"mem_latency,omitempty"` // first-chunk cycles
	// PerfectDisambiguation sweeps the Section 5 ablation.
	PerfectDisambiguation []bool `json:"perfect_disambiguation,omitempty"`

	// Seeds is the replication axis: each value reruns the whole grid
	// with the benchmark models' RNG seeds perturbed by that value, so a
	// point is measured over statistically independent instruction
	// streams of the same workload. Seed 0 is the canonical stream (the
	// one an empty axis runs); values must be unique.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Warmup and Instructions size every simulation of the grid.
	// Unset means the defaults (10000 and 60000); an explicit 0 warmup
	// is honored, while 0 instructions is rejected.
	Warmup       *uint64 `json:"warmup,omitempty"`
	Instructions *uint64 `json:"instructions,omitempty"`
}

// DefaultWarmup and DefaultInstructions size grid simulations when the
// spec leaves Warmup/Instructions zero.
const (
	DefaultWarmup       = 10_000
	DefaultInstructions = 60_000
)

// New returns an empty named Spec for builder-style assembly:
//
//	spec := scenario.New("rob-ablation").
//		WithSuites("fp").
//		WithNamed("MB_distr", "IQ_64_64").
//		WithROB(128, 256).
//		WithPerfectDisambiguation(false, true).
//		WithLengths(10_000, 60_000)
func New(name string) *Spec { return &Spec{Name: name} }

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

// WithNamed appends named configurations (IQ_unbounded, IQ_64_64,
// IF_distr, MB_distr) as scheme axes.
func (s *Spec) WithNamed(configs ...string) *Spec {
	for _, c := range configs {
		s.Schemes = append(s.Schemes, SchemeAxis{Scheme: c})
	}
	return s
}

// WithScheme appends one scheme axis.
func (s *Spec) WithScheme(ax SchemeAxis) *Spec {
	s.Schemes = append(s.Schemes, ax)
	return s
}

// WithROB sweeps reorder-buffer sizes (powers of two).
func (s *Spec) WithROB(sizes ...int) *Spec { s.ROB = append(s.ROB, sizes...); return s }

// WithFetchWidth sweeps the front-end (fetch + dispatch) width.
func (s *Spec) WithFetchWidth(w ...int) *Spec { s.FetchWidth = append(s.FetchWidth, w...); return s }

// WithIssueWidth sweeps the per-domain issue width.
func (s *Spec) WithIssueWidth(w ...int) *Spec { s.IssueWidth = append(s.IssueWidth, w...); return s }

// WithCommitWidth sweeps the commit width.
func (s *Spec) WithCommitWidth(w ...int) *Spec { s.CommitWidth = append(s.CommitWidth, w...); return s }

// WithIntALUs, WithIntMuls, WithFPAdders and WithFPMuls sweep
// functional-unit provisioning one kind at a time.
func (s *Spec) WithIntALUs(n ...int) *Spec  { s.IntALUs = append(s.IntALUs, n...); return s }
func (s *Spec) WithIntMuls(n ...int) *Spec  { s.IntMuls = append(s.IntMuls, n...); return s }
func (s *Spec) WithFPAdders(n ...int) *Spec { s.FPAdders = append(s.FPAdders, n...); return s }
func (s *Spec) WithFPMuls(n ...int) *Spec   { s.FPMuls = append(s.FPMuls, n...); return s }

// WithL1DLatency, WithL2Latency and WithMemLatency sweep memory-system
// latencies in cycles (MemLatency is the first-chunk latency).
func (s *Spec) WithL1DLatency(c ...int) *Spec { s.L1DLatency = append(s.L1DLatency, c...); return s }
func (s *Spec) WithL2Latency(c ...int) *Spec  { s.L2Latency = append(s.L2Latency, c...); return s }
func (s *Spec) WithMemLatency(c ...int) *Spec { s.MemLatency = append(s.MemLatency, c...); return s }

// WithPerfectDisambiguation sweeps the oracle memory-disambiguation
// ablation.
func (s *Spec) WithPerfectDisambiguation(v ...bool) *Spec {
	s.PerfectDisambiguation = append(s.PerfectDisambiguation, v...)
	return s
}

// WithSeeds appends replication seeds: every grid point reruns once per
// seed over a seed-perturbed instruction stream (0 = the canonical
// stream).
func (s *Spec) WithSeeds(seeds ...uint64) *Spec {
	s.Seeds = append(s.Seeds, seeds...)
	return s
}

// WithLengths sets warmup and measured instruction counts.
func (s *Spec) WithLengths(warmup, instructions uint64) *Spec {
	s.Warmup, s.Instructions = &warmup, &instructions
	return s
}

// ParseSpec decodes a JSON grid specification strictly: unknown fields
// (misspelled axes) are errors, as are all structural problems Validate
// detects.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("scenario: parse spec: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a JSON grid specification file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: spec %s: %w", path, err)
	}
	return s, nil
}

// JSON renders the spec as indented JSON (the format LoadSpec accepts).
func (s *Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Opt returns the simulation sizing of the grid. Unset fields take the
// defaults; an explicit zero warmup is preserved.
func (s *Spec) Opt() engine.Options {
	opt := engine.Options{Warmup: DefaultWarmup, Instructions: DefaultInstructions}
	if s.Warmup != nil {
		opt.Warmup = *s.Warmup
	}
	if s.Instructions != nil {
		opt.Instructions = *s.Instructions
	}
	return opt
}

// namedConfigs maps named-configuration spellings to constructors.
var namedConfigs = map[string]func() core.Config{
	"IQ_unbounded": core.Unbounded,
	"unbounded":    core.Unbounded,
	"IQ_64_64":     core.Baseline64,
	"baseline":     core.Baseline64,
	"IF_distr":     core.IFDistr,
	"MB_distr":     core.MBDistr,
}

// parametricSchemes are the scheme kinds that expand over queue shapes.
var parametricSchemes = map[string]bool{
	"IssueFIFO": true, "LatFIFO": true, "MixBUFF": true,
}

// benchList resolves the spec's suite and benchmark selections into a
// deduplicated list (suites first), defaulting to all benchmarks.
func (s *Spec) benchList() ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	for _, suite := range s.Suites {
		switch strings.ToLower(suite) {
		case "int":
			add(trace.Benchmarks(trace.SuiteInt))
		case "fp":
			add(trace.Benchmarks(trace.SuiteFP))
		case "all":
			add(trace.AllBenchmarks())
		default:
			return nil, fmt.Errorf("scenario: unknown suite %q (int, fp or all)", suite)
		}
	}
	for _, b := range s.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	add(s.Benchmarks)
	if len(out) == 0 {
		out = trace.AllBenchmarks()
	}
	return out, nil
}

// MaxGridPoints bounds the points one spec expands into. Expand builds
// every point before anything runs, so Validate counts them from the
// axis lengths first; the bound sits far above every grid this
// repository sweeps.
const MaxGridPoints = 65536

// Validate checks the spec's axes without expanding them: schemes and
// benchmarks must exist, every machine-axis value must be positive, no
// axis may repeat a value (duplicate grid rows would collide in output)
// and the grid may hold at most MaxGridPoints points.
func (s *Spec) Validate() error {
	if len(s.Schemes) == 0 {
		return fmt.Errorf("scenario: spec has no schemes axis")
	}
	benches, err := s.benchList()
	if err != nil {
		return err
	}
	for i, ax := range s.Schemes {
		if err := validateSchemeAxis(ax); err != nil {
			return fmt.Errorf("scenario: schemes[%d]: %w", i, err)
		}
	}
	for _, ax := range machineAxes {
		vals := ax.vals(s)
		if err := uniquePositive(ax.name, vals); err != nil {
			return err
		}
	}
	if len(s.PerfectDisambiguation) > 2 {
		return fmt.Errorf("scenario: axis perfect_disambiguation repeats a value")
	}
	if len(s.PerfectDisambiguation) == 2 &&
		s.PerfectDisambiguation[0] == s.PerfectDisambiguation[1] {
		return fmt.Errorf("scenario: axis perfect_disambiguation repeats a value")
	}
	seen := map[uint64]bool{}
	for _, v := range s.Seeds {
		if seen[v] {
			return fmt.Errorf("scenario: axis seeds repeats value %d", v)
		}
		seen[v] = true
	}
	if s.Instructions != nil && *s.Instructions == 0 {
		return fmt.Errorf("scenario: instructions must be positive (a zero-length run measures nothing)")
	}
	if s.size(len(benches)) > MaxGridPoints {
		return fmt.Errorf("scenario: spec expands to more than %d points", MaxGridPoints)
	}
	return nil
}

// size counts the points Expand builds over benches benchmarks from the
// lengths of validated axes (a named scheme has no shape, and only
// MixBUFF more than one chains value), an empty axis counting once. The
// count saturates at MaxGridPoints+1, so no product can overflow.
func (s *Spec) size(benches int) int {
	mul := func(n, k int) int {
		if k = max(k, 1); n > MaxGridPoints/k {
			return MaxGridPoints + 1
		}
		return n * k
	}
	n := 0
	for _, ax := range s.Schemes {
		n = min(n+mul(mul(mul(1, len(ax.Queues)), len(ax.Entries)), len(ax.Chains)), MaxGridPoints+1)
	}
	for _, ax := range machineAxes {
		n = mul(n, len(ax.vals(s)))
	}
	return mul(mul(mul(n, benches), len(s.PerfectDisambiguation)), len(s.Seeds))
}

func validateSchemeAxis(ax SchemeAxis) error {
	if _, named := namedConfigs[ax.Scheme]; named {
		if len(ax.Queues) > 0 || len(ax.Entries) > 0 || len(ax.Chains) > 0 || ax.IntQ != "" || ax.Distr {
			return fmt.Errorf("named configuration %q takes no queue shape", ax.Scheme)
		}
		return nil
	}
	if !parametricSchemes[ax.Scheme] {
		return fmt.Errorf("unknown scheme %q", ax.Scheme)
	}
	if ax.IntQ != "" {
		if _, _, err := parseQ(ax.IntQ); err != nil {
			return err
		}
	}
	for _, set := range []struct {
		name string
		vals []int
	}{{"queues", ax.Queues}, {"entries", ax.Entries}} {
		if err := uniquePositive(set.name, set.vals); err != nil {
			return err
		}
	}
	if len(ax.Chains) > 0 {
		seen := map[int]bool{}
		for _, c := range ax.Chains {
			if c < 0 {
				return fmt.Errorf("axis chains value %d is negative", c)
			}
			if seen[c] {
				return fmt.Errorf("axis chains repeats value %d", c)
			}
			seen[c] = true
		}
		if ax.Scheme != "MixBUFF" && (len(ax.Chains) > 1 || ax.Chains[0] != 0) {
			return fmt.Errorf("chains apply only to MixBUFF")
		}
	}
	return nil
}

// uniquePositive rejects non-positive or repeated axis values.
func uniquePositive(axis string, vals []int) error {
	seen := map[int]bool{}
	for _, v := range vals {
		if v <= 0 {
			return fmt.Errorf("scenario: axis %s value %d is not positive", axis, v)
		}
		if seen[v] {
			return fmt.Errorf("scenario: axis %s repeats value %d", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// parseQ parses an "AxB" queue shape.
func parseQ(s string) (a, b int, err error) {
	if _, err := fmt.Sscanf(s, "%dx%d", &a, &b); err != nil {
		return 0, 0, fmt.Errorf("bad queue shape %q (want AxB): %v", s, err)
	}
	if a <= 0 || b <= 0 {
		return 0, 0, fmt.Errorf("bad queue shape %q: non-positive", s)
	}
	return a, b, nil
}
