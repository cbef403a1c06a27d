// Package core implements the issue-queue organizations studied in the
// paper: the conventional CAM/RAM baseline, Palacharla-style dependence
// FIFOs (IssueFIFO), latency-placed FIFOs (LatFIFO) and the paper's
// contribution, MixBUFF — multi-chain buffers selected by compressed
// latency codes concatenated with age identifiers — plus the distributed
// functional-unit wiring of IF_distr and MB_distr.
//
// A Scheme instance manages one dispatch domain (integer or floating
// point). It decides where dispatched instructions are placed and which
// instructions are offered for issue each cycle; the pipeline owns operand
// readiness, functional units and memory, which schemes reach through the
// Env interface. Schemes also count the microarchitectural events the
// power model converts into energy.
package core

import (
	"fmt"

	"distiq/internal/isa"
	"distiq/internal/power"
)

// Env is the pipeline interface available to issue schemes.
type Env interface {
	// Cycle returns the current simulation cycle.
	Cycle() int64
	// OperandReady reports whether a physical register's value is
	// usable this cycle through the bypass network. A register named by
	// a queued instruction turns ready exactly in the cycle its
	// producer's tag is broadcast (Scheme.OnComplete), before that
	// cycle's Issue, and at no other time; a scheme may therefore read
	// it once, when an instruction is dispatched or becomes a head, and
	// track it from broadcasts, as every built-in scheme does.
	OperandReady(fp bool, preg int16) bool
	// TryIssue attempts to issue the instruction this cycle: it checks
	// operand readiness, memory ordering (loads), issue width and
	// functional-unit availability (honoring the distributed binding
	// through in.QueueID) and, on success, schedules execution, sets
	// in.Issued and returns true. The scheme must then remove the
	// instruction from its structures.
	TryIssue(in *isa.Inst) bool
	// Older reports whether age identifier a is older than b.
	Older(a, b uint32) bool
}

// Scheme is one domain's issue-queue organization.
type Scheme interface {
	// Name identifies the organization ("CAM", "IssueFIFO", ...).
	Name() string
	// Dispatch places in into the scheme's structures, returning false
	// (with no state change) when dispatch must stall.
	Dispatch(env Env, in *isa.Inst) bool
	// Issue is called once per cycle; the scheme offers instructions to
	// env.TryIssue in its selection order, stopping at the budget, and
	// returns how many issued.
	Issue(env Env, budget int) int
	// OnComplete broadcasts a result tag: physical register pdest of
	// the register file destFP selects. It is called once per result,
	// in the cycle the register turns ready and before that cycle's
	// Issue. Every built-in scheme tracks readiness from it: CAM
	// organizations wake the operands waiting for the tag and count
	// wakeup energy, the FIFO organizations and MixBUFF wake the queue
	// and chain heads waiting for it. A custom scheme may ignore the
	// tag, because TryIssue checks OperandsReady.
	OnComplete(env Env, destFP bool, pdest int16)
	// OnMispredictResolved is called when a mispredicted branch
	// resolves; map-table-based schemes clear their tables.
	OnMispredictResolved()
	// Occupancy returns the number of instructions currently held.
	Occupancy() int
	// Capacity returns the total number of entries.
	Capacity() int
	// Events exposes the scheme's energy event counters.
	Events() *power.Events
	// Geometry describes the scheme to the power model.
	Geometry() power.Geometry
}

// Kind selects an issue-queue organization.
type Kind uint8

const (
	// KindCAM is the conventional out-of-order CAM/RAM queue.
	KindCAM Kind = iota
	// KindIssueFIFO is Palacharla's dependence-based FIFO organization.
	KindIssueFIFO
	// KindLatFIFO places instructions in FIFOs by estimated issue time.
	KindLatFIFO
	// KindMixBUFF is the paper's buffer-of-chains organization.
	KindMixBUFF
	// KindAdaptiveCAM is the CAM queue with Folegnani-González dynamic
	// resizing (the paper's reference [14]), provided as an extension
	// for baseline-energy ablations.
	KindAdaptiveCAM
	// KindPreSched is Michaud-Seznec data-flow prescheduling (the
	// paper's reference [18]): a large wakeup-free preschedule buffer
	// promoting into a small first-level CAM queue. Extension.
	KindPreSched
)

var kindNames = map[Kind]string{
	KindCAM: "CAM", KindIssueFIFO: "IssueFIFO",
	KindLatFIFO: "LatFIFO", KindMixBUFF: "MixBUFF",
	KindAdaptiveCAM: "AdaptiveCAM", KindPreSched: "PreSched",
}

// String returns the organization name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DomainConfig configures one domain's scheme.
type DomainConfig struct {
	Kind    Kind
	Queues  int // number of queues (1 for CAM)
	Entries int // entries per queue
	// Chains bounds chains per queue for MixBUFF; 0 means unbounded
	// (limited only by the entry count, since every instruction
	// occupies an entry).
	Chains int
	// Custom, when non-nil, overrides Kind and builds a user-defined
	// scheme — the extension point for experimenting with new issue
	// logic organizations against the same pipeline and workloads.
	Custom func(DomainConfig, Options) (Scheme, error)

	// Ablation switches (all false in the paper's configurations):
	//
	// KeepMapOnMispredict disables clearing the register-to-queue map
	// table when a misprediction resolves. The paper found clearing
	// costs nothing and simplifies the hardware; this switch quantifies
	// that claim on this simulator.
	KeepMapOnMispredict bool
	// FlatSelectPriority removes MixBUFF's first-time-over-delayed
	// priority: ready chains compete by age alone, quantifying the
	// paper's selection heuristic.
	FlatSelectPriority bool
}

// Total returns the total entry count of the domain.
func (d DomainConfig) Total() int { return d.Queues * d.Entries }

// Validate checks the configuration.
func (d DomainConfig) Validate() error {
	if d.Queues <= 0 || d.Entries <= 0 {
		return fmt.Errorf("core: need positive queues/entries, got %dx%d", d.Queues, d.Entries)
	}
	if (d.Kind == KindCAM || d.Kind == KindAdaptiveCAM) && d.Queues != 1 && d.Custom == nil {
		return fmt.Errorf("core: CAM domain uses a single queue, got %d", d.Queues)
	}
	if d.Chains < 0 || d.Chains > d.Entries {
		return fmt.Errorf("core: chains %d outside [0,%d]", d.Chains, d.Entries)
	}
	return nil
}

// Options carries cross-cutting construction parameters.
type Options struct {
	Domain      isa.Domain
	Latencies   isa.Latencies
	MemHitLat   int // L1D hit latency, assumed for loads by estimators
	Distributed bool
	FUCounts    [isa.NumFUKinds]int
	// Estimator, when non-nil, is the shared dispatch-time issue-cycle
	// estimator (required by LatFIFO).
	Estimator *Estimator
}

// fanout computes the crossbar fanout per FU kind for the power model.
func (o Options) fanout() [isa.NumFUKinds]int {
	var f [isa.NumFUKinds]int
	kinds := []isa.FUKind{isa.IntALUUnit, isa.IntMulUnit}
	if o.Domain == isa.FPDomain {
		kinds = []isa.FUKind{isa.FPAddUnit, isa.FPMulUnit}
	}
	for _, k := range kinds {
		if o.Distributed {
			f[k] = 1
		} else {
			f[k] = o.FUCounts[k]
		}
	}
	return f
}

// New constructs a scheme for one domain.
func New(cfg DomainConfig, opt Options) (Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Custom != nil {
		return cfg.Custom(cfg, opt)
	}
	switch cfg.Kind {
	case KindCAM:
		return newCAM(cfg, opt), nil
	case KindAdaptiveCAM:
		return newAdaptiveCAM(cfg, opt), nil
	case KindPreSched:
		if opt.Estimator == nil {
			return nil, fmt.Errorf("core: PreSched requires an estimator")
		}
		return newPreSched(cfg, opt), nil
	case KindIssueFIFO:
		return newIssueFIFO(cfg, opt), nil
	case KindLatFIFO:
		if opt.Estimator == nil {
			return nil, fmt.Errorf("core: LatFIFO requires an estimator")
		}
		return newLatFIFO(cfg, opt), nil
	case KindMixBUFF:
		return newMixBUFF(cfg, opt), nil
	}
	return nil, fmt.Errorf("core: unknown scheme kind %v", cfg.Kind)
}

// OperandsReady reports whether in can begin execution this cycle: every
// register source must be usable, except a store's data operand (Src2) —
// the paper splits stores into address computation (issued as soon as the
// address register is ready) and the memory write (performed at commit,
// by which time in-order retirement guarantees the data).
func OperandsReady(env Env, in *isa.Inst) bool {
	if in.PSrc1 != isa.NoReg && !env.OperandReady(in.Src1FP, in.PSrc1) {
		return false
	}
	if in.Class == isa.Store {
		return true
	}
	if in.PSrc2 != isa.NoReg && !env.OperandReady(in.Src2FP, in.PSrc2) {
		return false
	}
	return true
}

// latencyOf returns the execution latency a scheme assumes for pacing
// purposes: fixed operation latencies, with the L1 hit latency added for
// loads (the paper's assumption).
func latencyOf(in *isa.Inst, lat isa.Latencies, memHit int) int {
	l := lat[in.Class]
	if in.Class == isa.Load {
		l += memHit
	}
	return l
}
