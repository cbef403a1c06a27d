// Package distiq is a cycle-level reproduction of "Low-Complexity
// Distributed Issue Queue" (Jaume Abella and Antonio González, HPCA 2004).
//
// The library provides:
//
//   - the four issue-queue organizations the paper studies — the
//     conventional CAM/RAM baseline, dependence-based FIFOs (IssueFIFO),
//     latency-placed FIFOs (LatFIFO) and the paper's MixBUFF buffers of
//     dependence chains — plus the distributed-functional-unit variants
//     IF_distr and MB_distr;
//   - an 8-wide out-of-order superscalar timing model configured per the
//     paper's Table 1 (hybrid branch predictor, three-level memory system,
//     256-entry reorder buffer, 160+160 physical registers);
//   - 26 synthetic workload models standing in for SPEC2000;
//   - an analytic issue-logic energy model (Wattch/CACTI methodology) and
//     the paper's power-efficiency metrics (normalized power, energy,
//     energy-delay, energy-delay²);
//   - experiment harnesses regenerating every figure of the evaluation,
//     backed by a concurrent experiment engine.
//
// Quick start — the Client API is the front door: one context-aware
// interface over both execution substrates, the in-process engine
// (NewLocalClient) and a remote distiqd service (NewRemoteClient),
// configured with functional options:
//
//	cl := distiq.NewLocalClient(
//		distiq.WithParallel(8), // worker-pool bound (0 = GOMAXPROCS)
//		distiq.WithStore(distiq.NewFSStore("/tmp/distiq-cache")), // reuse results across processes
//	)
//	res, err := cl.Run(ctx, distiq.Job{
//		Bench:  "swim",
//		Config: distiq.MBDistr(),
//		Opt:    distiq.DefaultOptions(),
//	})
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f, issue-logic energy %.0f pJ\n", res.IPC(), res.IQEnergy)
//
// Whole experiment grids stream point by point, in deterministic grid
// order, whatever the parallelism:
//
//	grid, _ := distiq.NewScenario("rob-ablation").
//		WithSuites("fp").
//		WithNamed("MB_distr", "IQ_64_64").
//		WithROB(128, 256).
//		Expand()
//	stream := cl.Sweep(ctx, grid)
//	for stream.Next() {
//		u := stream.Update() // u.Index, u.Point, u.Result — grid order
//	}
//	if err := stream.Err(); err != nil { ... } // context.Canceled on Ctrl-C
//
// or collect everything through the shared emitters (byte-identical to
// iqsweep's output, local or -server):
//
//	res, err := cl.Sweep(ctx, grid).ResultSet()
//	fmt.Print(res.CSV())
//
// Swapping the substrate is one constructor — the rest of the program is
// unchanged:
//
//	var cl distiq.Client = distiq.NewRemoteClient("http://localhost:8090")
//
// Cancelling the context stops scheduling new simulations promptly;
// in-flight ones finish and persist, so a warm rerun completes only the
// remainder. To regenerate a figure from the paper:
//
//	s := distiq.NewSession(distiq.DefaultOptions())
//	table, err := distiq.Figure(8, s)
//	fmt.Print(table)
//
// # Experiment engine
//
// Clients (and the Session figure harness on top of them) delegate every
// benchmark × configuration job to the concurrent experiment engine
// (internal/engine). The engine shards independent jobs across a bounded
// worker pool (GOMAXPROCS-wide by default), runs each distinct simulation
// once single-flight style (jobs that differ only in their configuration
// name, or in an FP side their benchmark never reaches, share one run),
// and keeps the 1,024 most recently used results in memory. Simulations are deterministic per job —
// the workload generators use per-instance seeded PRNGs and the pipeline
// holds no global state — so tables assembled from parallel runs are
// byte-identical to serial ones.
//
// With WithStore(NewFSStore(dir)), results also persist to an on-disk
// store shared across processes: one JSON file per result,
// content-addressed by a SHA-256 of the job's structural identity
// (benchmark, configuration name and shape, warmup and measured
// instruction counts, plus a format version), written atomically so
// concurrent engines can share a directory. A warm rerun of a figure or
// sweep performs zero new simulations.
//
// # Scenario grids
//
// The paper fixes the Table 1 machine and varies only the issue-queue
// organization. Scenario grids open the whole machine to the same cached
// engine: a declarative spec (JSON, or the builder below) names axes over
// benchmarks/suites, schemes and queue shapes, ROB size, pipeline widths,
// functional-unit counts, memory latencies and the perfect-disambiguation
// ablation; Expand crosses them into engine jobs and a Client's Sweep
// shards them across the worker pool with on-disk reuse. Results emit as
// CSV, JSON or markdown, in deterministic grid order at any parallelism.
//
//	spec := distiq.NewScenario("rob-ablation").
//		WithSuites("fp").
//		WithNamed("MB_distr", "IQ_64_64").
//		WithROB(128, 256).
//		WithPerfectDisambiguation(false, true).
//		WithLengths(10_000, 60_000)
//	grid, err := spec.Expand()
//	if err != nil { ... }
//	cl := distiq.NewLocalClient(distiq.WithStore(distiq.NewFSStore("/tmp/distiq-cache")))
//	res, err := cl.Sweep(ctx, grid).ResultSet()
//	if err != nil { ... }
//	fmt.Print(res.CSV())
//
// The same grid as JSON (cmd/iqsweep -spec accepts this format):
//
//	{
//	  "name": "rob-ablation",
//	  "suites": ["fp"],
//	  "schemes": [{"scheme": "MB_distr"}, {"scheme": "IQ_64_64"}],
//	  "rob": [128, 256],
//	  "perfect_disambiguation": [false, true]
//	}
//
// # Performance
//
// The per-job hot path is engineered to be allocation-free in steady
// state: the cycle loop pools instruction objects, threads completion
// events through an intrusive list, and sorts issue candidates in
// place. Each simulation walks its benchmark's static program with a
// generator of its own, as fast as replaying a recorded stream would,
// so no simulation leaves trace state behind. perfbench
// (perfbench/README.md) is the repository's benchmark: it times both
// layers, end to end and layer by layer, with repeated runs. See
// docs/ARCHITECTURE.md for the full picture.
package distiq

import (
	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
	"distiq/internal/scenario"
	"distiq/internal/serve"
	"distiq/internal/sim"
	"distiq/internal/study"
	"distiq/internal/trace"
)

// Client layer types: the unified, context-aware experiment API. A
// Client resolves single jobs (Run) and scenario grids (Sweep, streaming
// per-point results in deterministic grid order); LocalClient executes
// in process on the concurrent engine, RemoteClient speaks to a distiqd
// service — same interface, same bytes out.
type (
	// Client is the one experiment interface over every execution
	// substrate.
	Client = client.Client
	// LocalClient runs jobs on the in-process concurrent engine.
	LocalClient = client.Local
	// RemoteClient runs jobs on a distiqd service over its streaming
	// NDJSON endpoint.
	RemoteClient = client.Remote
	// Job identifies one unit of experiment work (benchmark,
	// configuration, sizing, optional machine override).
	Job = client.Job
	// SweepStream delivers a sweep's per-point results in grid order.
	SweepStream = client.Stream
	// SweepUpdate is one resolved grid point of a stream.
	SweepUpdate = client.Update
	// SweepCounts aggregates a stream's resolution sources.
	SweepCounts = client.Counts
	// ClientOption configures NewLocalClient / NewRemoteClient.
	ClientOption = client.Option
)

// Client layer entry points.
var (
	// NewLocalClient returns the in-process Client. Options:
	// WithParallel, WithStore, WithProgress.
	NewLocalClient = client.NewLocal
	// NewRemoteClient returns the Client for the distiqd at a base URL.
	// Options: WithHTTPClient.
	NewRemoteClient = client.NewRemote
	// WithParallel bounds a local client's concurrent simulations.
	WithParallel = client.WithParallel
	// WithStore persists a local client's results to a result store,
	// such as the shared distiq-v2 store NewFSStore opens.
	WithStore = client.WithStore
	// WithProgress installs a per-resolved-job callback on a local
	// client.
	WithProgress = client.WithProgress
	// WithHTTPClient overrides a remote client's http.Client.
	WithHTTPClient = client.WithHTTPClient
)

// The result store: the persistent layer under the engine is an
// interface, and its one persistent implementation is the on-disk
// distiq-v2 store, one canonical entry file per result, so a manifest
// verifies byte for byte against the directory.
type (
	// ResultStore is the persistent result-store interface consulted by
	// the engine on miss and written through on completed simulations.
	ResultStore = engine.ResultStore
	// FSStore is the on-disk distiq-v2 content-addressed store.
	FSStore = engine.Store
)

// NewFSStore returns the on-disk store rooted at a directory (created on
// first write).
var NewFSStore = engine.NewStore

// Sweep integrity: every successfully completed sweep carries a
// tamper-evident manifest — a Merkle tree (RFC 6962 leaf/node hashing
// over SHA-256) whose leaves are the content-addressed hashes of the
// grid's stored result entries in grid order. SweepStream.Manifest
// returns it after full consumption; `iqsweep -manifest` writes it and
// `iqsweep -verify-manifest` re-hashes a store offline against it.
type (
	// Manifest is the tamper-evident Merkle manifest of one sweep.
	Manifest = engine.Manifest
	// ManifestLeaf is one grid point's entry in a Manifest.
	ManifestLeaf = engine.ManifestLeaf
)

// Manifest entry points.
var (
	// BuildManifest computes the manifest for jobs and their results.
	BuildManifest = engine.BuildManifest
	// LoadManifest reads a manifest JSON file and checks its internal
	// consistency (leaf order, hash syntax, Merkle root).
	LoadManifest = engine.LoadManifest
)

// Service embedding: the distiqd HTTP experiment service as a library,
// for programs that want to host the API themselves (see
// examples/remotesweep).
type (
	// Server is the HTTP experiment service (an http.Handler).
	Server = serve.Server
	// ServerConfig configures a Server.
	ServerConfig = serve.Config
)

// NewServer returns the HTTP experiment service around a fresh engine.
var NewServer = serve.New

// Core configuration types.
type (
	// Config names a complete issue-logic configuration (both domains
	// plus functional-unit wiring).
	Config = core.Config
	// DomainConfig configures one domain's issue scheme.
	DomainConfig = core.DomainConfig
	// Kind selects an issue-queue organization.
	Kind = core.Kind
	// Scheme is the issue-queue interface; implement it (and pass it
	// through DomainConfig.Custom) to evaluate new organizations.
	Scheme = core.Scheme
	// Env is the pipeline interface available to schemes.
	Env = core.Env
	// SchemeOptions carries cross-cutting scheme construction inputs.
	SchemeOptions = core.Options
)

// Issue-queue organization kinds.
const (
	KindCAM       = core.KindCAM
	KindIssueFIFO = core.KindIssueFIFO
	KindLatFIFO   = core.KindLatFIFO
	KindMixBUFF   = core.KindMixBUFF
)

// Named configurations from the paper.
var (
	// Unbounded is the section 3 reference: issue queues as large as
	// the reorder buffer.
	Unbounded = core.Unbounded
	// Baseline64 is IQ_64_64, the evaluation baseline.
	Baseline64 = core.Baseline64
	// IssueFIFOCfg returns IssueFIFO_AxB_CxD.
	IssueFIFOCfg = core.IssueFIFOCfg
	// LatFIFOCfg returns LatFIFO_AxB_CxD.
	LatFIFOCfg = core.LatFIFOCfg
	// MixBUFFCfg returns MixBUFF_AxB_CxD with a chain bound per queue.
	MixBUFFCfg = core.MixBUFFCfg
	// IFDistr is IssueFIFO_8x8_8x16 with distributed functional units.
	IFDistr = core.IFDistr
	// MBDistr is the paper's proposal: MixBUFF_8x8_8x16, 8 chains per
	// queue, distributed functional units.
	MBDistr = core.MBDistr
)

// Simulation types.
type (
	// Options controls warmup and measured instruction counts.
	Options = sim.Options
	// Result is one benchmark × configuration outcome.
	Result = sim.Result
	// Session memoizes runs across figures; all methods are
	// goroutine-safe and batches fan out across the engine's workers.
	Session = sim.Session
	// EngineStats counts how jobs were resolved (simulated, memory
	// hits, disk hits, deduplicated).
	EngineStats = engine.Stats
	// Progress describes one resolved engine job.
	Progress = engine.Progress
	// ConsoleReporter renders engine progress as a status line.
	ConsoleReporter = engine.ConsoleReporter
	// Table is a rendered experiment result.
	Table = sim.Table
	// ProcessorConfig is the full Table 1 machine description.
	ProcessorConfig = pipeline.Config
	// Suite identifies SPECINT or SPECFP stand-ins.
	Suite = trace.Suite
	// Workload describes one synthetic benchmark model.
	Workload = trace.Model
)

// Benchmark suites.
const (
	SuiteInt = trace.SuiteInt
	SuiteFP  = trace.SuiteFP
)

// Simulation entry points.
var (
	// DefaultOptions is suitable for regenerating all figures.
	DefaultOptions = sim.DefaultOptions
	// QuickOptions is for smoke tests.
	QuickOptions = sim.QuickOptions
	// Run simulates one benchmark under one configuration.
	Run = sim.Run
	// NewSession returns a memoizing experiment session.
	NewSession = sim.NewSession
	// NewSessionClient returns a figure session running every job
	// through an existing LocalClient (sharing its caches and worker
	// pool); bind a context with Session.WithContext to make figure
	// generation cancellable.
	NewSessionClient = sim.NewSessionClient
	// NewConsoleReporter returns a progress reporter whose Report method
	// is a WithProgress callback, writing a status line to w.
	NewConsoleReporter = engine.NewConsoleReporter
	// Figure regenerates a figure of the paper (2-4, 6-15).
	Figure = sim.Figure
	// FigureNumbers lists the reproducible figures.
	FigureNumbers = sim.FigureNumbers
	// Table1 renders the processor configuration.
	Table1 = sim.Table1

	// Benchmarks lists a suite's workload names in figure order;
	// AllBenchmarks lists every workload.
	Benchmarks    = trace.Benchmarks
	AllBenchmarks = trace.AllBenchmarks
	// WorkloadByName returns the model behind a benchmark name.
	WorkloadByName = trace.ByName

	// DefaultProcessor returns the Table 1 machine around an issue
	// configuration; NewPipeline builds a simulator from it for callers
	// that need cycle-level control (see examples/customscheme).
	DefaultProcessor = pipeline.DefaultConfig
	NewPipeline      = pipeline.New
)

// Scenario grid types: declarative full-machine experiment sweeps
// through the cached engine.
type (
	// ScenarioSpec is a declarative experiment grid over benchmarks,
	// schemes and full-machine axes; build one with NewScenario or
	// parse JSON with ParseScenarioSpec/LoadScenarioSpec.
	ScenarioSpec = scenario.Spec
	// SchemeAxis is one issue-queue organization axis of a grid.
	SchemeAxis = scenario.SchemeAxis
	// ScenarioGrid is a spec's expanded cross-product of jobs.
	ScenarioGrid = scenario.Grid
	// ScenarioPoint is one expanded grid cell.
	ScenarioPoint = scenario.Point
	// ScenarioResults pairs a grid with its results and emits CSV,
	// JSON or markdown.
	ScenarioResults = scenario.ResultSet
	// Machine overrides full-machine parameters on one engine job
	// (nil = the paper's Table 1 machine).
	Machine = engine.Machine
)

// Scenario grid entry points.
var (
	// NewScenario starts a builder-style grid spec.
	NewScenario = scenario.New
	// ParseScenarioSpec decodes a JSON grid spec (strict: unknown
	// axes are errors).
	ParseScenarioSpec = scenario.ParseSpec
	// LoadScenarioSpec reads and parses a JSON grid spec file.
	LoadScenarioSpec = scenario.LoadSpec
)

// Study types: comparative experiment orchestration on top of the
// Client layer. A study — built with NewStudy or parsed from strict
// JSON — is an ordered list of single-configuration scenario grids,
// swept unchanged on any Client (Local or Remote), in one of two modes:
// ablation (baseline + named feature-toggle variants, emitted as a
// deterministic variant × metric delta table) and replication (variants
// fanned across RNG seeds with mean/stddev/95% CI columns). Tables use
// fixed-point formatting, so documents are byte-identical across
// substrates and warm-cache reruns.
//
//	spec := distiq.NewStudy("scheme-ablation").
//		Ablation().
//		WithSuites("fp").
//		WithVariants(
//			distiq.StudyVariant{Name: "proposed", Scheme: "MB_distr"},
//			distiq.StudyVariant{Name: "small-rob", ROB: 128},
//		)
//	res, err := distiq.RunStudy(ctx, cl, spec)
//	if err != nil { ... }
//	fmt.Print(res.CSV())
type (
	// StudySpec is a strict-JSON study description (ablation or
	// replication); build one with NewStudy or parse with
	// ParseStudySpec/LoadStudySpec.
	StudySpec = study.Spec
	// StudyVariant is one named feature-toggle set applied over a
	// study's baseline.
	StudyVariant = study.Variant
	// StudyResult is a finished study's deterministic table (CSV, JSON
	// and markdown emitters) plus resolution counts and manifest.
	StudyResult = study.Result
)

// Study entry points.
var (
	// NewStudy starts a builder-style study spec.
	NewStudy = study.New
	// ParseStudySpec decodes a JSON study spec (strict: unknown fields
	// are errors).
	ParseStudySpec = study.ParseSpec
	// LoadStudySpec reads and parses a JSON study spec file.
	LoadStudySpec = study.LoadSpec
	// RunStudy executes a study against any Client and returns its
	// table.
	RunStudy = study.Run
)

// Domains of the split issue logic.
const (
	IntDomain = isa.IntDomain
	FPDomain  = isa.FPDomain
)

// AdaptiveBaseline64 is IQ_64_64 with Folegnani-González dynamic resizing
// (an extension beyond the paper's evaluated configurations).
var AdaptiveBaseline64 = core.AdaptiveBaseline64

// PreSchedCfg is the Michaud-Seznec two-level data-flow prescheduling
// organization (the paper's reference [18]), provided as an extension
// comparator: a D-entry wakeup-free preschedule buffer promoting into a
// small first-level CAM queue.
var PreSchedCfg = core.PreSchedCfg

// CycleTimeStudy runs the cycle-time what-if extension: the paper's
// closing argument that simplified issue logic could shorten the clock,
// quantified as ED² versus hypothetical clock advantage plus the
// break-even point per scheme and suite.
var CycleTimeStudy = sim.CycleTimeStudy
