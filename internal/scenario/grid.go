package scenario

import (
	"fmt"
	"strconv"

	"distiq/internal/core"
	"distiq/internal/engine"
)

// machineAxis describes one sweepable full-machine parameter: its output
// column name, where its values live in a Spec and how a value lands in
// an engine.Machine override.
type machineAxis struct {
	name string
	vals func(*Spec) []int
	set  func(*engine.Machine, int)
}

// machineAxes fixes the expansion and column order of the machine axes.
// FetchWidth intentionally drives dispatch too: the front end is one
// pipe, and sweeping fetch without dispatch just moves the bottleneck
// one stage down.
var machineAxes = []machineAxis{
	{"rob", func(s *Spec) []int { return s.ROB },
		func(m *engine.Machine, v int) { m.ROBSize = v }},
	{"fetch_width", func(s *Spec) []int { return s.FetchWidth },
		func(m *engine.Machine, v int) { m.FetchWidth, m.DispatchWidth = v, v }},
	{"issue_width", func(s *Spec) []int { return s.IssueWidth },
		func(m *engine.Machine, v int) { m.IssueWidthInt, m.IssueWidthFP = v, v }},
	{"commit_width", func(s *Spec) []int { return s.CommitWidth },
		func(m *engine.Machine, v int) { m.CommitWidth = v }},
	{"int_alus", func(s *Spec) []int { return s.IntALUs },
		func(m *engine.Machine, v int) { m.IntALUs = v }},
	{"int_muls", func(s *Spec) []int { return s.IntMuls },
		func(m *engine.Machine, v int) { m.IntMuls = v }},
	{"fp_adders", func(s *Spec) []int { return s.FPAdders },
		func(m *engine.Machine, v int) { m.FPAdders = v }},
	{"fp_muls", func(s *Spec) []int { return s.FPMuls },
		func(m *engine.Machine, v int) { m.FPMuls = v }},
	{"l1d_latency", func(s *Spec) []int { return s.L1DLatency },
		func(m *engine.Machine, v int) { m.L1DLatency = v }},
	{"l2_latency", func(s *Spec) []int { return s.L2Latency },
		func(m *engine.Machine, v int) { m.L2Latency = v }},
	{"mem_latency", func(s *Spec) []int { return s.MemLatency },
		func(m *engine.Machine, v int) { m.MemLatency = v }},
}

// Point is one expanded grid cell: a benchmark under a fully specified
// machine. Values holds the rendered axis values aligned with Grid.Axes.
type Point struct {
	Bench   string
	Config  core.Config
	Machine *engine.Machine
	// Seed is the point's replication seed (0 = canonical stream).
	Seed   uint64
	Values []string
}

// Job returns the engine job the point resolves to.
func (p Point) Job(opt engine.Options) engine.Job {
	return engine.Job{Bench: p.Bench, Config: p.Config, Opt: opt, Machine: p.Machine, Seed: p.Seed}
}

// Grid is the expanded cross-product of a Spec's axes, in deterministic
// order: scheme points outermost, machine axes in declaration order, the
// perfect-disambiguation ablation, then benchmarks innermost — so output
// rows group naturally by configuration.
type Grid struct {
	Spec *Spec
	// Axes names the varying-axis columns of every point, in order:
	// the four scheme-shape columns, then each machine axis present in
	// the spec.
	Axes   []string
	Points []Point
}

// schemePoint is one fully resolved issue-queue configuration; axis is
// the index of the schemes-axis entry it came from.
type schemePoint struct {
	cfg             core.Config
	scheme          string
	queues, entries int
	chains          int
	axis            int
}

// expandSchemes resolves every scheme axis into concrete configurations.
func expandSchemes(axes []SchemeAxis) ([]schemePoint, error) {
	var out []schemePoint
	for i, ax := range axes {
		if mk, named := namedConfigs[ax.Scheme]; named {
			cfg := mk()
			out = append(out, schemePoint{
				cfg: cfg, scheme: cfg.Name,
				queues: cfg.FP.Queues, entries: cfg.FP.Entries, chains: cfg.FP.Chains,
				axis: i,
			})
			continue
		}
		a, b := 8, 8
		if ax.IntQ != "" {
			var err error
			if a, b, err = parseQ(ax.IntQ); err != nil {
				return nil, err
			}
		}
		queues, entries, chains := ax.Queues, ax.Entries, ax.Chains
		if len(queues) == 0 {
			queues = []int{8}
		}
		if len(entries) == 0 {
			entries = []int{16}
		}
		if ax.Scheme != "MixBUFF" || len(chains) == 0 {
			chains = []int{0}
		}
		for _, q := range queues {
			for _, e := range entries {
				for _, ch := range chains {
					var cfg core.Config
					switch ax.Scheme {
					case "IssueFIFO":
						cfg = core.IssueFIFOCfg(a, b, q, e)
					case "LatFIFO":
						cfg = core.LatFIFOCfg(a, b, q, e)
					case "MixBUFF":
						cfg = core.MixBUFFCfg(a, b, q, e, ch)
					default:
						return nil, fmt.Errorf("scenario: unknown scheme %q", ax.Scheme)
					}
					cfg.DistributedFU = ax.Distr
					if ax.Distr {
						cfg.Name += "_distr"
					}
					out = append(out, schemePoint{
						cfg: cfg, scheme: ax.Scheme,
						queues: q, entries: e, chains: ch, axis: i,
					})
				}
			}
		}
	}
	return out, nil
}

// refuseRepeats refuses two scheme points from different schemes-axis
// entries that resolve to one configuration, a configuration name and
// its chains (MixBUFF names leave the chains out): their grid rows
// would be identical. One entry cannot repeat itself, since Validate
// refuses a repeated shape value.
func refuseRepeats(axes int, points []schemePoint) error {
	if axes < 2 {
		return nil
	}
	type config struct {
		name   string
		chains int
	}
	first := make(map[config]int, len(points))
	for _, sp := range points {
		c := config{sp.cfg.Name, sp.chains}
		j, seen := first[c]
		if !seen {
			first[c] = sp.axis
			continue
		}
		name := c.name
		if sp.scheme == "MixBUFF" {
			name += fmt.Sprintf(" (chains %d)", c.chains)
		}
		return fmt.Errorf("scenario: schemes[%d] and schemes[%d] both resolve to %s", j, sp.axis, name)
	}
	return nil
}

// Expand validates the spec and crosses its axes into a Grid. Every
// distinct machine of the grid is validated against the pipeline's
// invariants (e.g. power-of-two ROB sizes) before any simulation runs,
// and no two schemes-axis entries may resolve to one configuration.
func (s *Spec) Expand() (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	benches, err := s.benchList()
	if err != nil {
		return nil, err
	}
	schemes, err := expandSchemes(s.Schemes)
	if err != nil {
		return nil, err
	}
	if err := refuseRepeats(len(s.Schemes), schemes); err != nil {
		return nil, err
	}

	axes := []string{"scheme", "queues", "entries", "chains"}
	var active []machineAxis
	for _, ax := range machineAxes {
		if len(ax.vals(s)) > 0 {
			active = append(active, ax)
			axes = append(axes, ax.name)
		}
	}
	pdis := s.PerfectDisambiguation
	if len(pdis) > 0 {
		axes = append(axes, "perfect_disambig")
	}
	seeds := s.Seeds
	if len(seeds) > 0 {
		axes = append(axes, "seed")
	} else {
		seeds = []uint64{0}
	}

	// machines enumerates the cross-product of the active machine axes
	// (and the ablation switch) as override structs plus rendered
	// values. A grid with no machine axes yields one nil machine.
	type machinePoint struct {
		m      *engine.Machine
		values []string
	}
	points := []machinePoint{{nil, nil}}
	for _, ax := range active {
		var next []machinePoint
		for _, mp := range points {
			for _, v := range ax.vals(s) {
				var m engine.Machine
				if mp.m != nil {
					m = *mp.m
				}
				ax.set(&m, v)
				vals := append(append([]string(nil), mp.values...), strconv.Itoa(v))
				next = append(next, machinePoint{&m, vals})
			}
		}
		points = next
	}
	if len(pdis) > 0 {
		var next []machinePoint
		for _, mp := range points {
			for _, v := range pdis {
				var m engine.Machine
				if mp.m != nil {
					m = *mp.m
				}
				m.PerfectDisambiguation = v
				vals := append(append([]string(nil), mp.values...), strconv.FormatBool(v))
				next = append(next, machinePoint{&m, vals})
			}
		}
		points = next
	}

	g := &Grid{Spec: s, Axes: axes}
	opt := s.Opt()
	for _, sp := range schemes {
		if err := sp.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		for _, mp := range points {
			// Validate the full machine once per configuration point
			// (validity is benchmark-independent).
			probe := engine.Job{Bench: benches[0], Config: sp.cfg, Opt: opt, Machine: mp.m}
			if err := probe.PipelineConfig().Validate(); err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			base := []string{
				sp.scheme, strconv.Itoa(sp.queues),
				strconv.Itoa(sp.entries), strconv.Itoa(sp.chains),
			}
			base = append(base, mp.values...)
			for _, seed := range seeds {
				vals := base
				if len(s.Seeds) > 0 {
					vals = append(append([]string(nil), base...), strconv.FormatUint(seed, 10))
				}
				for _, bench := range benches {
					g.Points = append(g.Points, Point{
						Bench: bench, Config: sp.cfg, Machine: mp.m, Seed: seed, Values: vals,
					})
				}
			}
		}
	}
	return g, nil
}

// Jobs returns the grid's engine jobs in point order.
func (g *Grid) Jobs() []engine.Job {
	opt := g.Spec.Opt()
	jobs := make([]engine.Job, len(g.Points))
	for i, p := range g.Points {
		jobs[i] = p.Job(opt)
	}
	return jobs
}

// Size returns the number of grid points (simulation jobs before
// deduplication).
func (g *Grid) Size() int { return len(g.Points) }
