// Package engine executes simulation experiments concurrently: it shards
// independent (benchmark × configuration × options) jobs across a bounded
// worker pool, runs each distinct simulation once single-flight style
// (jobs that differ only in their configuration name, or in an FP side
// their benchmark never reaches, share one run), keeps the memoryCap
// most recently used results in memory and, optionally,
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
	"strconv"

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
	// IntBreakdown and FPBreakdown are the issue-logic energy breakdowns
	// per domain; Breakdown returns their sum.
	IntBreakdown, FPBreakdown power.Breakdown
}

// Breakdown returns the summed issue-logic energy breakdown of the two
// domains: every component either domain charges, the integer domain's
// energy first.
func (r Result) Breakdown() power.Breakdown {
	var sum power.Breakdown
	sum.Add(r.IntBreakdown)
	sum.Add(r.FPBreakdown)
	return sum
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
	// benchmark model's RNG seed so the job simulates a statistically
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
// applied. Seed zero returns the canonical model unchanged.
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

// canonCap sizes the stack buffer job identities are rendered into; a
// canonical string of the paper's machine is about 260 bytes.
const canonCap = 384

// appendDom appends the structural identity of one domain's
// configuration: its kind, queues, entries and chains, and the two
// ablation switches.
func appendDom(b []byte, d *core.DomainConfig) []byte {
	b = append(b, d.Kind.String()...)
	b = appendInt(append(b, ','), d.Queues)
	b = appendInt(append(b, ','), d.Entries)
	b = appendInt(append(b, ','), d.Chains)
	b = strconv.AppendBool(append(b, ','), d.KeepMapOnMispredict)
	return strconv.AppendBool(append(b, ','), d.FlatSelectPriority)
}

// appendInt appends v in decimal.
func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendInts appends vs in decimal, separated by sep.
func appendInts(b []byte, sep byte, vs []int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep)
		}
		b = appendInt(b, v)
	}
	return b
}

// persistable reports whether the job has a canonical identity, and with
// it a store fingerprint: a configuration that embeds a Custom scheme
// factory has none, since a string cannot capture its behaviour.
func (j *Job) persistable() bool {
	return j.Config.Int.Custom == nil && j.Config.FP.Custom == nil
}

// appendCanonical appends the job's full structural identity, or
// reports false when the job is not persistable. The machine segment is
// rendered from the *applied* pipeline configuration, so overrides that
// restate Table 1 defaults hash identically to no override.
func (j *Job) appendCanonical(b []byte) ([]byte, bool) {
	if !j.persistable() {
		return b, false
	}
	return j.appendCanon(b, j.Config.Name, false), true
}

// appendCanon appends the canonical layout with the given configuration
// name, and with the FP-domain segment "idle" when fpIdle is set:
//
//	distiq-v2|<bench>|<name>|w<warmup>|n<insts>|int:<dom>|fp:<dom>|distr:<bool>|mach:<machine>[|seed:<seed>]
func (j *Job) appendCanon(b []byte, name string, fpIdle bool) []byte {
	b = strconv.AppendInt(append(b, "distiq-v"...), storeVersion, 10)
	b = append(append(b, '|'), j.Bench...)
	b = append(append(b, '|'), name...)
	b = strconv.AppendUint(append(b, "|w"...), j.Opt.Warmup, 10)
	b = strconv.AppendUint(append(b, "|n"...), j.Opt.Instructions, 10)
	b = appendDom(append(b, "|int:"...), &j.Config.Int)
	b = append(b, "|fp:"...)
	if fpIdle {
		b = append(b, "idle"...)
	} else {
		b = appendDom(b, &j.Config.FP)
	}
	b = strconv.AppendBool(append(b, "|distr:"...), j.Config.DistributedFU)
	b = j.appendMachine(append(b, "|mach:"...))
	return j.appendSeed(b)
}

// appendSeed appends the seed segment. It appears only when set: every
// pre-existing (seed-zero) fingerprint — and with it every warm store
// entry and golden manifest root — is untouched by the axis.
func (j *Job) appendSeed(b []byte) []byte {
	if j.Seed == 0 {
		return b
	}
	return strconv.AppendUint(append(b, "|seed:"...), j.Seed, 10)
}

// simIdentity returns what the simulator sees of the job: its canonical
// string without the configuration name, which changes no simulated
// number, and, when the benchmark's static program holds no FP-domain
// instruction, without the FP issue-queue organization too, which such a
// program never reaches (fpIdle). The paper's organizations differ only
// on the FP side, so on integer codes IF_distr and MB_distr are one
// machine. The identity comes hashed. ok is false for a job whose key is
// its only identity: a Custom scheme, an unknown benchmark or an invalid
// configuration, whose error names the configuration.
func (j Job) simIdentity() (id Digest, fpIdle, ok bool) {
	if !j.persistable() {
		return id, false, false
	}
	m, err := j.model()
	if err != nil || j.PipelineConfig().Validate() != nil {
		return id, false, false
	}
	fpIdle = !m.HasFPOps()
	// The prefix keeps identities apart from job digests.
	var buf [canonCap]byte
	return sha256.Sum256(j.appendCanon(append(buf[:0], "sim|"...), "", fpIdle)), fpIdle, true
}

// table1Mach is the machine segment of every job without a Machine
// override: the Table 1 machine around any issue-queue organization,
// which the segment does not cover.
var table1Mach = machCanon(pipeline.DefaultConfig(core.Config{}))

// machineCanon renders the job's full-machine identity segment.
func (j Job) machineCanon() string {
	if j.Machine == nil {
		return table1Mach
	}
	return machCanon(j.PipelineConfig())
}

// appendMachine appends machineCanon's rendering.
func (j *Job) appendMachine(b []byte) []byte {
	if j.Machine == nil {
		return append(b, table1Mach...)
	}
	c := j.PipelineConfig()
	return appendMach(b, &c)
}

// Key returns the job's identity as a string: its canonical identity,
// or for a job with a Custom scheme a name-based one (the caller must
// name distinct custom configurations distinctly, as sim.Session always
// required). The engine keys its memory by the key's digest instead.
func (j Job) Key() string {
	var buf [canonCap]byte
	return string(j.appendKey(buf[:0]))
}

// appendKey appends Key's bytes.
func (j *Job) appendKey(b []byte) []byte {
	if c, ok := j.appendCanonical(b); ok {
		return c
	}
	b = append(b, "custom|"...)
	b = append(append(b, j.Bench...), '|')
	b = append(b, j.Config.Name...)
	b = strconv.AppendUint(append(b, "|w"...), j.Opt.Warmup, 10)
	b = strconv.AppendUint(append(b, "|n"...), j.Opt.Instructions, 10)
	b = j.appendMachine(append(b, "|mach:"...))
	return j.appendSeed(b)
}

// Digest is a job's 32-byte identity, the SHA-256 of its key: for a
// persistable job these are the bytes of its store fingerprint. The
// engine keys its memory, its in-flight runs and its identity index by
// digests, so resolving a job renders no key string.
type Digest [sha256.Size]byte

// digest returns the job's Digest, hashing its key from a stack buffer.
func (j *Job) digest() Digest {
	var buf [canonCap]byte
	return sha256.Sum256(j.appendKey(buf[:0]))
}

// Fingerprint returns the content address used by the persistent store: a
// hex SHA-256 of the job's canonical identity, which is its digest. It
// reports false for jobs that cannot be safely persisted (Custom scheme
// configurations).
func (j Job) Fingerprint() (string, bool) {
	if !j.persistable() {
		return "", false
	}
	sum := j.digest()
	return hex.EncodeToString(sum[:]), true
}

// TraceCacheStats returns zero counters: no engine path keeps a trace
// cache any more.
//
// Deprecated: TraceCacheStats exists only because the benchmark harness
// still reads it; it goes away when the benchmark is next redefined.
func TraceCacheStats() trace.CacheStats { return trace.CacheStats{} }

// Simulate runs one job to completion on the calling goroutine: it drives
// the pipeline over the benchmark's synthetic model under the job's
// configuration and assembles the performance and energy result. The
// job fetches from a generator of its own, which walks the benchmark's
// static program as fast as replaying a recorded stream would, so no
// simulation leaves trace state behind; the pipeline's cache, BTB and
// instruction arrays go on to the next simulation (Pipeline.Release).
func Simulate(j Job) (Result, error) {
	model, err := j.model()
	if err != nil {
		return Result{}, err
	}
	p, err := pipeline.New(j.PipelineConfig(), trace.NewGenerator(model))
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
	res.SetEnergy(energy(p.Scheme(isa.IntDomain)), energy(p.Scheme(isa.FPDomain)))
	p.Release()
	return res, nil
}

// SimulateUncached returns Simulate(j).
//
// Deprecated: SimulateUncached exists only because the benchmark harness
// still calls it; use Simulate. It goes away when the benchmark is next
// redefined.
func SimulateUncached(j Job) (Result, error) { return Simulate(j) }

// energy is the issue-logic energy breakdown of one domain's scheme.
func energy(s core.Scheme) power.Breakdown {
	return power.NewCalc(s.Geometry()).Energy(s.Events())
}

// SetEnergy stores the per-domain breakdowns and derives the
// issue-logic energy total from their sum.
func (r *Result) SetEnergy(intBD, fpBD power.Breakdown) {
	r.IntBreakdown, r.FPBreakdown = intBD, fpBD
	r.IQEnergy = r.Breakdown().Total()
}

// adapt turns the result of a run with the job's simulation identity
// into the job's own, byte for byte: it takes the job's configuration
// name and, when the run ignored the FP side (fpIdle), the breakdown the
// job's own FP organization yields with zero events.
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
	r.SetEnergy(r.IntBreakdown, energy(fp))
	return r, nil
}
