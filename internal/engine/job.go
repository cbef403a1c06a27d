// Package engine executes simulation experiments concurrently: it shards
// independent (benchmark × configuration × options) jobs across a bounded
// worker pool, runs each distinct simulation once single-flight style
// (jobs that differ only in their configuration name, or in an FP side
// their benchmark never reaches, share one run), memoizes results in a
// goroutine-safe in-memory cache and, optionally,
// persists them to an on-disk store content-addressed by a hash of the
// job, so results are reused across processes.
//
// Simulations are deterministic per job (the workload generators use
// per-instance seeded PRNGs and the pipeline holds no global state), so a
// result computed by any worker, in any order, in any process, is
// bit-identical to a serial run. Consumers may therefore fan out freely
// and still assemble byte-identical tables.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/metrics"
	"distiq/internal/pipeline"
	"distiq/internal/power"
	"distiq/internal/trace"
)

// Options controls simulation length. The paper simulates 100M
// instructions per benchmark after skipping initialization; the synthetic
// workloads reach steady state much sooner, so the defaults are far
// smaller while remaining stable to ~1%.
type Options struct {
	// Warmup instructions run before statistics collection starts
	// (caches and predictors stay warm, counters reset).
	Warmup uint64
	// Instructions measured per run.
	Instructions uint64
}

// Result is the outcome of one benchmark × configuration simulation.
type Result struct {
	metrics.Run
	Stats pipeline.Stats
	// IntBreakdown and FPBreakdown are the labeled issue-logic energy
	// breakdowns per domain; Breakdown is their sum.
	IntBreakdown, FPBreakdown, Breakdown power.Breakdown
}

// Job identifies one unit of experiment work.
type Job struct {
	Bench  string
	Config core.Config
	Opt    Options
	// Machine optionally overrides full-machine parameters (ROB size,
	// widths, functional units, memory latencies, perfect
	// disambiguation); nil is the paper's Table 1 machine.
	Machine *Machine
	// Seed is the replication axis: a non-zero value perturbs the
	// benchmark model's RNG seed so the job replays a statistically
	// independent instruction stream of the same workload. Zero is the
	// canonical stream, and leaves the job's identity — canonical string
	// and fingerprint — exactly as it was before the axis existed, so
	// warm distiq-v2 stores stay valid.
	Seed uint64
}

// seedMix spreads a replication seed across the model seed's bits. It is
// odd, so distinct replication seeds map to distinct perturbations
// (multiplication by an odd constant is a bijection mod 2^64) and no
// non-zero seed collapses onto the canonical stream.
const seedMix = 0x9e3779b97f4a7c15

// model resolves the job's benchmark model with the replication seed
// applied. Seed zero returns the canonical model unchanged; the trace
// cache keys streams on the full model, seed included, so perturbed
// models get distinct shared-trace streams for free.
func (j Job) model() (trace.Model, error) {
	m, err := trace.ByName(j.Bench)
	if err != nil {
		return m, err
	}
	if j.Seed != 0 {
		m.Seed ^= j.Seed * seedMix
	}
	return m, nil
}

// storeVersion is folded into job fingerprints and written into every
// store entry; bump it whenever the simulator or the entry layout changes
// in a result-affecting way, which atomically invalidates old caches.
// v2 added the machine-configuration segment to job identity.
const storeVersion = 2

// domCanon renders the structural identity of one domain's configuration.
func domCanon(d core.DomainConfig) string {
	return fmt.Sprintf("%s,%d,%d,%d,%t,%t",
		d.Kind, d.Queues, d.Entries, d.Chains,
		d.KeepMapOnMispredict, d.FlatSelectPriority)
}

// canonical renders the job's full structural identity, or reports false
// when the configuration embeds a Custom scheme factory, whose behaviour
// a string cannot capture. The machine segment is rendered from the
// *applied* pipeline configuration, so overrides that restate Table 1
// defaults hash identically to no override.
func (j Job) canonical() (string, bool) {
	if j.Config.Int.Custom != nil || j.Config.FP.Custom != nil {
		return "", false
	}
	return j.canon(j.Config.Name, domCanon(j.Config.FP)), true
}

// canon renders the canonical layout with the given configuration name
// and FP-domain segment.
func (j Job) canon(name, fp string) string {
	c := fmt.Sprintf("distiq-v%d|%s|%s|w%d|n%d|int:%s|fp:%s|distr:%t|mach:%s",
		storeVersion, j.Bench, name,
		j.Opt.Warmup, j.Opt.Instructions,
		domCanon(j.Config.Int), fp,
		j.Config.DistributedFU, j.machineCanon())
	// The seed segment appears only when set: every pre-existing
	// (seed-zero) fingerprint — and with it every warm store entry and
	// golden manifest root — is untouched by the axis.
	if j.Seed != 0 {
		c += fmt.Sprintf("|seed:%d", j.Seed)
	}
	return c
}

// simIdentity returns what the simulator sees of the job: its canonical
// string without the configuration name, which changes no simulated
// number, and, when the benchmark's static program holds no FP-domain
// instruction, without the FP issue-queue organization too, which such a
// program never reaches (fpIdle). The paper's organizations differ only
// on the FP side, so on integer codes IF_distr and MB_distr are one
// machine. ok is false for a job whose key is its only identity: a
// Custom scheme, an unknown benchmark or an invalid configuration, whose
// error names the configuration.
func (j Job) simIdentity() (id string, fpIdle, ok bool) {
	if j.Config.Int.Custom != nil || j.Config.FP.Custom != nil {
		return "", false, false
	}
	m, err := j.model()
	if err != nil || j.PipelineConfig().Validate() != nil {
		return "", false, false
	}
	fp := domCanon(j.Config.FP)
	if !m.HasFPOps() {
		fp, fpIdle = "idle", true
	}
	// The prefix keeps identities apart from job keys.
	return "sim|" + j.canon("", fp), fpIdle, true
}

// machineCanon renders the job's full-machine identity segment.
func (j Job) machineCanon() string {
	return machCanon(j.PipelineConfig())
}

// Key returns the in-process memoization key. Jobs with Custom schemes
// fall back to name-based identity (the caller must name distinct custom
// configurations distinctly, as sim.Session always required).
func (j Job) Key() string {
	if c, ok := j.canonical(); ok {
		return c
	}
	k := fmt.Sprintf("custom|%s|%s|w%d|n%d|mach:%s",
		j.Bench, j.Config.Name, j.Opt.Warmup, j.Opt.Instructions,
		j.machineCanon())
	if j.Seed != 0 {
		k += fmt.Sprintf("|seed:%d", j.Seed)
	}
	return k
}

// Fingerprint returns the content address used by the persistent store: a
// hex SHA-256 of the job's canonical identity. It reports false for jobs
// that cannot be safely persisted (Custom scheme configurations).
func (j Job) Fingerprint() (string, bool) {
	c, ok := j.canonical()
	if !ok {
		return "", false
	}
	sum := sha256.Sum256([]byte(c))
	return hex.EncodeToString(sum[:]), true
}

// sharedTraces caches each benchmark's generated dynamic instruction
// stream so the jobs of a grid replay one shared immutable trace instead
// of regenerating it per job. Replay is bit-exact (the stream is a pure
// function of the model), so results, figure bytes and distiq-v2
// fingerprints are unchanged by caching; SimulateUncached bypasses it.
var sharedTraces = trace.NewCache(trace.DefaultCacheCap)

// TraceCacheStats reports the shared trace cache's counters (residency,
// hits, evictions), for observability surfaces such as cmd/iqbench.
func TraceCacheStats() trace.CacheStats { return sharedTraces.Stats() }

// WarmTraces materializes the shared trace cache for the named benchmarks
// up to n instructions each, so subsequent timed runs pay no one-time
// generation cost (cmd/iqbench uses it to put its serial and parallel
// cold cases on equal footing). Warming is bounded by the shared cache's
// capacity: past it, readers fall back to private generation as usual.
func WarmTraces(benches []string, n uint64) error {
	for _, b := range benches {
		model, err := trace.ByName(b)
		if err != nil {
			return err
		}
		r := sharedTraces.Reader(model)
		var in isa.Inst
		for i := uint64(0); i < n; i++ {
			r.Next(&in)
		}
	}
	return nil
}

// Simulate runs one job to completion on the calling goroutine: it drives
// the pipeline over the benchmark's synthetic model under the job's
// configuration and assembles the performance and energy result. The
// benchmark's dynamic trace is replayed from the shared trace cache.
func Simulate(j Job) (Result, error) {
	return simulate(j, true)
}

// SimulateUncached is Simulate with the shared trace cache bypassed: the
// benchmark's stream is regenerated for this run. Results are identical
// to Simulate's; it exists for memory-constrained callers and for tests
// pinning that identity.
func SimulateUncached(j Job) (Result, error) {
	return simulate(j, false)
}

func simulate(j Job, cached bool) (Result, error) {
	model, err := j.model()
	if err != nil {
		return Result{}, err
	}
	var gen pipeline.Fetcher
	if cached {
		gen = sharedTraces.Reader(model)
	} else {
		gen = trace.NewGenerator(model)
	}
	p, err := pipeline.New(j.PipelineConfig(), gen)
	if err != nil {
		return Result{}, err
	}
	p.Warmup(j.Opt.Warmup)
	p.Run(j.Opt.Instructions)

	st := p.Stats()
	res := Result{Stats: st}
	res.Benchmark = j.Bench
	res.Config = j.Config.Name
	res.Insts = st.Committed
	res.Cycles = st.Cycles
	res.setEnergy(energy(p.Scheme(isa.IntDomain)), energy(p.Scheme(isa.FPDomain)))
	return res, nil
}

// energy is the issue-logic energy breakdown of one domain's scheme.
func energy(s core.Scheme) power.Breakdown {
	return power.NewCalc(s.Geometry()).Energy(s.Events())
}

// setEnergy stores the per-domain breakdowns and derives their sum and
// the issue-logic energy total from them.
func (r *Result) setEnergy(intBD, fpBD power.Breakdown) {
	r.IntBreakdown, r.FPBreakdown = intBD, fpBD
	r.Breakdown = power.Breakdown{}
	r.Breakdown.Add(intBD)
	r.Breakdown.Add(fpBD)
	r.IQEnergy = r.Breakdown.Total()
}

// adapt turns the result of a run with the job's simulation identity
// into the job's own, byte for byte: it takes the job's configuration
// name and, when the run ignored the FP side (fpIdle), the breakdown the
// job's own FP organization yields with zero events. r's maps are shared
// with other requesters and are not modified.
func (j Job) adapt(r Result, fpIdle bool) (Result, error) {
	r.Config = j.Config.Name
	if !fpIdle {
		return r, nil
	}
	// These are the options pipeline.New gives the FP scheme; only
	// LatFIFO and PreSched read the estimator, and they require one.
	c := j.PipelineConfig()
	fp, err := core.New(c.IQ.FP, core.Options{
		Domain:      isa.FPDomain,
		Latencies:   c.Latencies,
		MemHitLat:   c.Hier.L1D.Latency,
		Distributed: c.IQ.DistributedFU,
		FUCounts:    [isa.NumFUKinds]int(c.FUCounts),
		Estimator:   core.NewEstimator(c.Latencies, c.Hier.L1D.Latency),
	})
	if err != nil {
		return Result{}, err
	}
	r.setEnergy(r.IntBreakdown, energy(fp))
	return r, nil
}
