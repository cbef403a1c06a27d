package pipeline

import (
	"testing"

	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/trace"
)

// farFetcher emits instructions whose PCs stride across cache lines far
// apart, defeating the L1I; used to exercise instruction-fetch stalls.
type farFetcher struct {
	seq uint64
}

func (f *farFetcher) Next(in *isa.Inst) {
	*in = isa.Inst{
		Seq: f.seq, PC: 0x400000 + f.seq*1024*1024, // new line and set each time
		Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dest: 1,
	}
	in.ResetMicro()
	f.seq++
}

func TestICacheMissStallsCounted(t *testing.T) {
	p, err := New(DefaultConfig(core.Unbounded()), &farFetcher{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	st := p.Stats()
	if st.ICacheMissCycles == 0 {
		t.Fatal("no instruction-cache stall cycles recorded")
	}
	// Every instruction misses to memory: IPC must be tiny.
	if st.IPC() > 0.05 {
		t.Fatalf("IPC %.3f too high for a 100%% I-miss stream", st.IPC())
	}
}

func TestBTBMisfetchCounted(t *testing.T) {
	// Taken branches bouncing among many targets: first encounter of
	// each site misses the BTB even when the direction is predictable.
	var seq uint64
	fetch := fetcherFunc(func(in *isa.Inst) {
		*in = isa.Inst{
			Seq: seq, PC: 0x400000 + (seq%4096)*16,
			Class: isa.Branch, Src1: isa.NoReg, Src2: isa.NoReg, Dest: isa.NoReg,
			Taken: true, Target: 0x400000 + ((seq+1)%4096)*16,
		}
		in.ResetMicro()
		seq++
	})
	p, err := New(DefaultConfig(core.Unbounded()), fetch)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(3000)
	if p.Stats().Misfetches == 0 {
		t.Fatal("no BTB misfetches recorded")
	}
}

// fetcherFunc adapts a function to the Fetcher interface.
type fetcherFunc func(*isa.Inst)

func (f fetcherFunc) Next(in *isa.Inst) { f(in) }

func TestRegisterExhaustionStalls(t *testing.T) {
	// Every instruction writes an FP register and depends on a blocked
	// producer; with 160 physical FP registers and a 256-entry ROB, the
	// free list empties before the ROB fills.
	var seq uint64
	fetch := fetcherFunc(func(in *isa.Inst) {
		*in = isa.Inst{
			Seq: seq, PC: 0x400000 + (seq%64)*4,
			Class: isa.FPDiv, Src1: 1, Src1FP: true, Src2: isa.NoReg,
			Dest: int16(seq % 30), DestFP: true,
		}
		in.ResetMicro()
		seq++
	})
	p, err := New(DefaultConfig(core.Unbounded()), fetch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		p.Step()
	}
	if p.Stats().StallRegs == 0 {
		t.Fatal("no rename stalls with serial FPDiv pressure")
	}
}

func TestDividerNotPipelined(t *testing.T) {
	// Independent FP divides (latency 12, 4 units, non-pipelined): the
	// sustained rate is bounded by 4/12 per cycle.
	script := []isa.Inst{{Class: isa.FPDiv, Src1: isa.NoReg, Src2: isa.NoReg,
		Dest: 1, DestFP: true}}
	p := newPipe(t, core.Unbounded(), script)
	p.Warmup(200)
	p.Run(1200)
	ipc := p.Stats().IPC()
	limit := 4.0 / 12.0
	if ipc > limit*1.05 {
		t.Fatalf("FPDiv IPC %.3f exceeds non-pipelined bound %.3f", ipc, limit)
	}
	if ipc < limit*0.85 {
		t.Fatalf("FPDiv IPC %.3f far below achievable %.3f", ipc, limit)
	}
}

func TestMultiplierIsPipelined(t *testing.T) {
	// Independent FP multiplies (latency 4, 4 pipelined units): the
	// sustained rate approaches 4/cycle (one per unit per cycle).
	script := []isa.Inst{{Class: isa.FPMult, Src1: isa.NoReg, Src2: isa.NoReg,
		Dest: 1, DestFP: true}}
	p := newPipe(t, core.Unbounded(), script)
	p.Warmup(500)
	p.Run(4000)
	if ipc := p.Stats().IPC(); ipc < 3.5 {
		t.Fatalf("FPMult IPC %.2f, want near 4 (pipelined units)", ipc)
	}
}

func TestDCachePortLimit(t *testing.T) {
	// Independent loads hitting L1: bounded by the 4 R/W ports even
	// though 8 integer ALUs could compute addresses.
	script := []isa.Inst{{Class: isa.Load, Src1: isa.NoReg, Src2: isa.NoReg,
		Dest: 1, Addr: 0x1000}}
	p := newPipe(t, core.Unbounded(), script)
	p.Warmup(500)
	p.Run(4000)
	ipc := p.Stats().IPC()
	if ipc > 4.1 {
		t.Fatalf("load IPC %.2f exceeds the 4-port bound", ipc)
	}
	if ipc < 3.5 {
		t.Fatalf("load IPC %.2f far below the 4-port bound", ipc)
	}
}

func TestROBFullStallCounted(t *testing.T) {
	// A serial FPDiv chain fills the ROB behind the long-latency head;
	// the filler operations are destless so the physical register file
	// cannot become the binding limit first.
	filler := isa.Inst{Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dest: isa.NoReg}
	script := []isa.Inst{
		{Class: isa.FPDiv, Src1: 1, Src1FP: true, Src2: isa.NoReg, Dest: 1, DestFP: true},
		filler, filler, filler, filler, filler, filler, filler,
	}
	p := newPipe(t, core.Unbounded(), script)
	for i := 0; i < 2000; i++ {
		p.Step()
	}
	if p.Stats().StallROB == 0 {
		t.Fatal("no ROB-full stalls under serial long-latency pressure")
	}
}

func TestEventRingGuard(t *testing.T) {
	// schedule must reject completion distances beyond the ring.
	p := newPipe(t, core.Unbounded(), []isa.Inst{alu(isa.NoReg, isa.NoReg, 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized completion distance not rejected")
		}
	}()
	p.schedule(&isa.Inst{}, p.cycle+eventRing+1)
}

// TestLargestMemLatencySimulates: on the Table 1 machine, the largest
// memory latency at which a load missing every cache level still
// completes inside the event ring is accepted by Validate and simulates
// mcf, whose loads miss to memory, to the end: the bound Validate
// enforces is not tighter than the ring.
func TestLargestMemLatencySimulates(t *testing.T) {
	c := DefaultConfig(core.Baseline64())
	c.Hier.Mem.FirstChunk = eventRing - 1 - (c.Latencies[isa.Load] + c.Hier.L1D.Latency + c.Hier.L2.Latency)
	if err := c.Validate(); err != nil {
		t.Fatalf("memory latency %d: %v", c.Hier.Mem.FirstChunk, err)
	}
	p, err := New(c, trace.NewGenerator(trace.MustByName("mcf")))
	if err != nil {
		t.Fatal(err)
	}
	p.Warmup(100)
	p.Run(2000)
	if st := p.Stats(); st.Committed < 2000 {
		t.Fatalf("memory latency %d: committed %d of 2000 instructions", c.Hier.Mem.FirstChunk, st.Committed)
	}
}

func TestPerfectDisambiguationHelps(t *testing.T) {
	// Each group: a pointer load that misses to memory, a store through
	// the loaded pointer, then independent cache-hitting loads. Under
	// the conservative AllStoreAddr rule every younger load (including
	// the next group's pointer load) waits for the store's address —
	// fully serializing at memory latency. The oracle overlaps them.
	mkStream := func() Fetcher {
		var seq uint64
		return fetcherFunc(func(in *isa.Inst) {
			switch seq % 6 {
			case 0: // pointer load, unique cold line every time
				*in = isa.Inst{Class: isa.Load, Src1: isa.NoReg, Src2: isa.NoReg,
					Dest: 2, Addr: 0x4000_0000 + seq*4096}
			case 1: // store through the pointer
				*in = isa.Inst{Class: isa.Store, Src1: 2, Src2: 3,
					Dest: isa.NoReg, Addr: 0x9000}
			default: // independent hitting loads
				*in = isa.Inst{Class: isa.Load, Src1: isa.NoReg, Src2: isa.NoReg,
					Dest: 4, Addr: 0x1000}
			}
			in.Seq = seq
			in.PC = 0x400000 + (seq%6)*4
			in.ResetMicro()
			seq++
		})
	}

	cons := DefaultConfig(core.Unbounded())
	p1, err := New(cons, mkStream())
	if err != nil {
		t.Fatal(err)
	}
	p1.Run(6000)

	oracle := DefaultConfig(core.Unbounded())
	oracle.PerfectDisambiguation = true
	p2, err := New(oracle, mkStream())
	if err != nil {
		t.Fatal(err)
	}
	p2.Run(6000)

	if p2.Stats().IPC() <= p1.Stats().IPC()*1.5 {
		t.Fatalf("oracle IPC %.3f not clearly above conservative %.3f",
			p2.Stats().IPC(), p1.Stats().IPC())
	}
}
