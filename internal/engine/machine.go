package engine

import (
	"strconv"

	"distiq/internal/cache"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
)

// Machine overrides full-machine parameters beyond the issue-queue
// organization, so experiment grids can sweep the processor itself (ROB
// size, widths, functional units, memory latencies, the perfect
// memory-disambiguation ablation) through the cached engine. The zero
// value of every field keeps the paper's Table 1 default; a nil *Machine
// on a Job means the unmodified Table 1 machine.
//
// Job identity hashes the *applied* configuration, so an override that
// restates a default (e.g. ROBSize: 256) is identical — in memory and on
// disk — to no override at all.
type Machine struct {
	// Front-end and back-end widths (instructions per cycle).
	FetchWidth    int `json:"fetch_width,omitempty"`
	DispatchWidth int `json:"dispatch_width,omitempty"`
	IssueWidthInt int `json:"issue_width_int,omitempty"`
	IssueWidthFP  int `json:"issue_width_fp,omitempty"`
	CommitWidth   int `json:"commit_width,omitempty"`

	// Window sizes. ROBSize must be a power of two (pipeline invariant).
	FetchQueue int `json:"fetch_queue,omitempty"`
	ROBSize    int `json:"rob_size,omitempty"`

	// Functional-unit provisioning.
	IntALUs  int `json:"int_alus,omitempty"`
	IntMuls  int `json:"int_muls,omitempty"`
	FPAdders int `json:"fp_adders,omitempty"`
	FPMuls   int `json:"fp_muls,omitempty"`

	// Memory-system latencies, in cycles. MemLatency is the
	// first-chunk main-memory latency.
	L1DLatency int `json:"l1d_latency,omitempty"`
	L2Latency  int `json:"l2_latency,omitempty"`
	MemLatency int `json:"mem_latency,omitempty"`

	// PerfectDisambiguation lets loads bypass the conservative
	// all-prior-store-addresses-known rule (Section 5 ablation).
	PerfectDisambiguation bool `json:"perfect_disambiguation,omitempty"`
}

// Apply returns c with every non-zero override substituted.
func (m *Machine) Apply(c pipeline.Config) pipeline.Config {
	if m == nil {
		return c
	}
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&c.FetchWidth, m.FetchWidth)
	set(&c.DispatchWidth, m.DispatchWidth)
	set(&c.IssueWidthInt, m.IssueWidthInt)
	set(&c.IssueWidthFP, m.IssueWidthFP)
	set(&c.CommitWidth, m.CommitWidth)
	set(&c.FetchQueue, m.FetchQueue)
	set(&c.ROBSize, m.ROBSize)
	set(&c.FUCounts[isa.IntALUUnit], m.IntALUs)
	set(&c.FUCounts[isa.IntMulUnit], m.IntMuls)
	set(&c.FUCounts[isa.FPAddUnit], m.FPAdders)
	set(&c.FUCounts[isa.FPMulUnit], m.FPMuls)
	set(&c.Hier.L1D.Latency, m.L1DLatency)
	set(&c.Hier.L2.Latency, m.L2Latency)
	set(&c.Hier.Mem.FirstChunk, m.MemLatency)
	if m.PerfectDisambiguation {
		c.PerfectDisambiguation = true
	}
	return c
}

// PipelineConfig returns the full processor configuration the job
// simulates: the Table 1 machine around the job's issue-queue
// organization, with the job's machine overrides applied.
func (j Job) PipelineConfig() pipeline.Config {
	return j.Machine.Apply(pipeline.DefaultConfig(j.Config))
}

// machCanon renders the structural identity of the full machine (beyond
// the issue-queue organization, which the job canon covers separately).
func machCanon(c pipeline.Config) string {
	var buf [canonCap]byte
	return string(appendMach(buf[:0], &c))
}

// appendMach appends machCanon's rendering. Every result-affecting
// pipeline parameter a Machine can reach appears here, so two jobs share
// a fingerprint exactly when they simulate the same processor:
//
//	f<fetch>,d<dispatch>,ii<issue int>,if<issue fp>,c<commit>,fq<fetch queue>,rob<rob>,dd<decode depth>,rp<redirect penalty>
//	|lat:[<latency> ...]|l1i:<KB>/<assoc>/<line>/<latency>,l1d:...,l2:...,mem:<first>/<inter>/<chunk bytes>,p<data ports>
//	|fu:[<units> ...]|pdis:<bool>
//
// (one line, without the breaks).
func appendMach(b []byte, c *pipeline.Config) []byte {
	b = appendInt(append(b, 'f'), c.FetchWidth)
	b = appendInt(append(b, ",d"...), c.DispatchWidth)
	b = appendInt(append(b, ",ii"...), c.IssueWidthInt)
	b = appendInt(append(b, ",if"...), c.IssueWidthFP)
	b = appendInt(append(b, ",c"...), c.CommitWidth)
	b = appendInt(append(b, ",fq"...), c.FetchQueue)
	b = appendInt(append(b, ",rob"...), c.ROBSize)
	b = appendInt(append(b, ",dd"...), c.DecodeDepth)
	b = appendInt(append(b, ",rp"...), c.RedirectPenalty)
	b = append(appendInts(append(b, "|lat:["...), ' ', c.Latencies[:]), ']')
	b = appendCache(append(b, "|l1i:"...), &c.Hier.L1I)
	b = appendCache(append(b, ",l1d:"...), &c.Hier.L1D)
	b = appendCache(append(b, ",l2:"...), &c.Hier.L2)
	m := &c.Hier.Mem
	b = appendInt(append(b, ",mem:"...), m.FirstChunk)
	b = appendInt(append(b, '/'), m.InterChunk)
	b = appendInt(append(b, '/'), m.ChunkBytes)
	b = appendInt(append(b, ",p"...), c.Hier.DPorts)
	b = append(appendInts(append(b, "|fu:["...), ' ', c.FUCounts[:]), ']')
	return strconv.AppendBool(append(b, "|pdis:"...), c.PerfectDisambiguation)
}

// appendCache appends one cache level's size, associativity, line size
// and latency, separated by slashes.
func appendCache(b []byte, c *cache.Config) []byte {
	b = appendInt(b, c.SizeKB)
	b = appendInt(append(b, '/'), c.Assoc)
	b = appendInt(append(b, '/'), c.LineSize)
	return appendInt(append(b, '/'), c.Latency)
}
