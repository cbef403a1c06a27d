// Package pipeline implements the cycle-level out-of-order core that hosts
// the issue-queue schemes: an 8-wide fetch/decode/rename/dispatch front
// end, pluggable issue logic per domain, Table 1 functional units, a
// conservative load/store queue, and an 8-wide in-order commit from a
// 256-entry reorder buffer.
//
// The simulator is trace-driven. Wrong-path execution is approximated the
// standard way: the front end stops fetching past a mispredicted branch
// and resumes, after a redirect penalty, once the branch executes. Because
// no wrong-path instruction ever enters the window, rename state needs no
// checkpoints; the performance cost of the misprediction (drained window,
// refill latency) is fully modeled.
package pipeline

import (
	"fmt"

	"distiq/internal/cache"
	"distiq/internal/core"
	"distiq/internal/fu"
	"distiq/internal/isa"
)

// Config collects every processor parameter. DefaultConfig returns the
// paper's Table 1 machine.
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidthInt int
	IssueWidthFP  int
	CommitWidth   int

	FetchQueue int
	ROBSize    int

	// DecodeDepth is the number of cycles between fetch and the
	// earliest possible dispatch (decode + rename stages);
	// RedirectPenalty is the extra front-end delay after a mispredicted
	// branch resolves.
	DecodeDepth     int
	RedirectPenalty int

	Latencies isa.Latencies
	Hier      cache.HierarchyConfig
	FUCounts  fu.Counts

	// IQ selects the issue-logic organization under study.
	IQ core.Config

	// PerfectDisambiguation is an ablation switch: loads ignore the
	// conservative AllStoreAddr rule (they still receive forwarded data
	// correctly) as if an oracle memory-dependence predictor were
	// present. The paper's schemes and estimator assume the
	// conservative rule; this quantifies what it costs.
	PerfectDisambiguation bool
}

// DefaultConfig returns the Table 1 configuration around the given
// issue-logic organization: 8-wide fetch/decode/commit, 8+8 issue, 64-entry
// fetch queue, 256-entry ROB, 160+160 physical registers (in rename),
// hybrid branch predictor and the three-level memory system.
func DefaultConfig(iq core.Config) Config {
	return Config{
		FetchWidth:      8,
		DispatchWidth:   8,
		IssueWidthInt:   8,
		IssueWidthFP:    8,
		CommitWidth:     8,
		FetchQueue:      64,
		ROBSize:         256,
		DecodeDepth:     3,
		RedirectPenalty: 1,
		Latencies:       isa.DefaultLatencies(),
		Hier:            cache.DefaultHierarchyConfig(),
		FUCounts:        fu.DefaultCounts(),
		IQ:              iq,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("pipeline: non-positive width")
	}
	if c.IssueWidthInt <= 0 || c.IssueWidthFP <= 0 {
		return fmt.Errorf("pipeline: non-positive issue width")
	}
	if c.FetchQueue <= 0 {
		return fmt.Errorf("pipeline: fetch queue size")
	}
	if c.ROBSize <= 0 || c.ROBSize&(c.ROBSize-1) != 0 {
		return fmt.Errorf("pipeline: ROB size must be a power of two")
	}
	if c.DecodeDepth < 1 {
		return fmt.Errorf("pipeline: decode depth must be at least 1")
	}
	// A result must become usable after its issue cycle, at its
	// writeback, where its tag is broadcast to the issue queues.
	for class, lat := range c.Latencies {
		if lat < 1 {
			return fmt.Errorf("pipeline: %v latency %d, must be at least 1", isa.Class(class), lat)
		}
	}
	return c.IQ.Validate()
}

// Stats aggregates the performance counters of one run.
type Stats struct {
	Cycles    uint64
	Committed uint64
	ByClass   [isa.NumClasses]uint64

	Branches    uint64
	Mispredicts uint64
	Misfetches  uint64 // BTB misses on predicted-taken branches

	// Dispatch stall cycles by cause (counted once per stalled cycle).
	StallScheme uint64 // issue queue / chain structurally full
	StallROB    uint64
	StallRegs   uint64

	ICacheMissCycles uint64 // cycles fetch waited on the L1I

	IssuedInt, IssuedFP uint64
	LoadForwards        uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}
