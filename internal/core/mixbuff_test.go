package core

import (
	"strconv"
	"testing"

	"distiq/internal/isa"
)

func newTestMixBUFF(queues, entries, chains int) *mixBUFF {
	s, err := New(DomainConfig{Kind: KindMixBUFF, Queues: queues, Entries: entries, Chains: chains},
		defaultOpts(isa.FPDomain))
	if err != nil {
		panic(err)
	}
	return s.(*mixBUFF)
}

func fpInst(seq uint64, src1, src2, dest int16) *isa.Inst {
	return mkInst(seq, isa.FPAdd, src1, src2, dest)
}

func TestMixBUFFDependentJoinsChain(t *testing.T) {
	m := newTestMixBUFF(2, 8, 4)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	cons := fpInst(1, 7, isa.NoReg, 8)
	m.Dispatch(env, prod)
	m.Dispatch(env, cons)
	if prod.QueueID != cons.QueueID || prod.ChainID != cons.ChainID {
		t.Fatalf("consumer (%d,%d) not in producer chain (%d,%d)",
			cons.QueueID, cons.ChainID, prod.QueueID, prod.ChainID)
	}
}

func TestMixBUFFChainMajorAllocation(t *testing.T) {
	// Independent instructions must allocate chain 0 of queue 0, chain 0
	// of queue 1, chain 1 of queue 0, chain 1 of queue 1, ... (paper's
	// balancing order).
	m := newTestMixBUFF(2, 8, 3)
	env := newFakeEnv()
	want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	for i, w := range want {
		in := fpInst(uint64(i), isa.NoReg, isa.NoReg, int16(i))
		if !m.Dispatch(env, in) {
			t.Fatalf("dispatch %d stalled", i)
		}
		if in.QueueID != w[0] || in.ChainID != w[1] {
			t.Fatalf("inst %d placed (%d,%d), want (%d,%d)",
				i, in.QueueID, in.ChainID, w[0], w[1])
		}
	}
	// All chains busy: the next independent instruction stalls.
	if m.Dispatch(env, fpInst(99, isa.NoReg, isa.NoReg, 30)) {
		t.Fatal("dispatch succeeded with all chains busy")
	}
}

func TestMixBUFFMultipleChainsShareQueue(t *testing.T) {
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, isa.NoReg, isa.NoReg, 2)
	m.Dispatch(env, a)
	m.Dispatch(env, b)
	if a.QueueID != 0 || b.QueueID != 0 {
		t.Fatal("single queue not used")
	}
	if a.ChainID == b.ChainID {
		t.Fatal("independent chains merged")
	}
}

func TestMixBUFFOneIssuePerQueuePerCycle(t *testing.T) {
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	m.Dispatch(env, fpInst(0, isa.NoReg, isa.NoReg, 1))
	m.Dispatch(env, fpInst(1, isa.NoReg, isa.NoReg, 2))
	env.cycle = 1
	if n := m.Issue(env, 8); n != 1 {
		t.Fatalf("queue issued %d in one cycle, want 1", n)
	}
	env.cycle = 2
	if n := m.Issue(env, 8); n != 1 {
		t.Fatalf("second cycle issued %d, want 1", n)
	}
}

func TestMixBUFFChainPacingByLatency(t *testing.T) {
	// Two dependent FPAdds (latency 2): the consumer must issue exactly
	// two cycles after the producer.
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	cons := fpInst(1, 7, isa.NoReg, 8)
	env.block(true, 7) // the producer's result, until its broadcast
	m.Dispatch(env, prod)
	m.Dispatch(env, cons)
	env.block(true, 8) // nothing beyond these two

	env.cycle = 1
	if n := m.Issue(env, 8); n != 1 || env.issued[0] != prod {
		t.Fatal("producer did not issue first")
	}
	// Result usable at cycle 3 (issue 1 + latency 2). The consumer's
	// operand becomes ready then, by the producer's broadcast.
	env.cycle = 2
	if n := m.Issue(env, 8); n != 0 {
		t.Fatal("consumer issued before its chain's result was usable")
	}
	env.cycle = 3
	env.wake(m, true, 7)
	if n := m.Issue(env, 8); n != 1 || env.issued[1] != cons {
		t.Fatal("consumer did not issue when chain became ready")
	}
}

func TestSelectPaperExample(t *testing.T) {
	// Reproduces Figure 5: one queue holding six instructions across
	// four chains. Chain latency counters: chain 0 finished (delayed
	// code 01), chains 1 and 2 finishing now (first-time code 00),
	// chain 3 four cycles away (code 11). Ages follow the figure:
	// i..i+5 = 5,6,7,8,9,10 with entries
	//   i   -> chain 0, i+1 -> chain 1, i+2 -> chain 0,
	//   i+3 -> chain 2, i+4 -> chain 2, i+5 -> chain 3.
	// Expected selection: i+1 (oldest among the chains with code 00).
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	env.cycle = 100

	mkEntry := func(seq uint64, age uint32, chain int) *isa.Inst {
		in := fpInst(seq, isa.NoReg, isa.NoReg, isa.NoReg)
		in.AgeID = age
		in.QueueID, in.ChainID = 0, chain
		m.place(env, 0, chain, in)
		m.occ++
		return in
	}
	mkEntry(0, 5, 0)       // i
	i1 := mkEntry(1, 6, 1) // i+1
	mkEntry(2, 7, 0)       // i+2
	mkEntry(3, 8, 2)       // i+3
	mkEntry(4, 9, 2)       // i+4
	mkEntry(5, 10, 3)      // i+5
	chains := m.queues[0].chains
	chains[0].readyAt, chains[0].readySince = 90, 90   // finished a while ago: delayed
	chains[1].readyAt, chains[1].readySince = 100, 100 // first time this cycle
	chains[2].readyAt, chains[2].readySince = 100, 100
	chains[3].readyAt, chains[3].readySince = 104, 104 // not ready

	if n := m.Issue(env, 8); n != 1 {
		t.Fatalf("issued %d, want 1", n)
	}
	if env.issued[0] != i1 {
		t.Fatalf("selected seq %d, want i+1", env.issued[0].Seq)
	}
}

func TestMixBUFFFirstTimeBeatsDelayed(t *testing.T) {
	// A delayed instruction (chain long since ready) must lose to a
	// younger instruction whose chain became ready this cycle.
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	env.cycle = 50
	old := fpInst(0, isa.NoReg, isa.NoReg, isa.NoReg)
	old.AgeID = 1
	old.QueueID, old.ChainID = 0, 0
	young := fpInst(1, isa.NoReg, isa.NoReg, isa.NoReg)
	young.AgeID = 2
	young.QueueID, young.ChainID = 0, 1
	m.place(env, 0, 0, old)
	m.place(env, 0, 1, young)
	q := &m.queues[0]
	q.chains[0].readyAt, q.chains[0].readySince = 10, 10
	q.chains[1].readyAt, q.chains[1].readySince = 50, 50
	m.occ = 2

	m.Issue(env, 8)
	if len(env.issued) != 1 || env.issued[0] != young {
		t.Fatal("first-time-ready instruction did not have priority")
	}
}

func TestMixBUFFChainFreedAndGenerationGuards(t *testing.T) {
	m := newTestMixBUFF(1, 8, 2)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	m.Dispatch(env, prod)
	env.cycle = 1
	m.Issue(env, 8) // issues prod; chain 0 now empty and freed
	if m.queues[0].chains[0].head >= 0 {
		t.Fatal("chain not freed after last instruction issued")
	}
	// A new independent instruction reuses chain 0 (new generation).
	other := fpInst(1, isa.NoReg, isa.NoReg, 9)
	m.Dispatch(env, other)
	if other.ChainID != 0 {
		t.Fatalf("expected chain 0 reuse, got %d", other.ChainID)
	}
	// A consumer of the *old* chain's register must not append to the
	// recycled chain: the generation check forces a fresh chain.
	cons := fpInst(2, 7, isa.NoReg, 8)
	m.Dispatch(env, cons)
	if cons.ChainID == 0 {
		t.Fatal("stale mapping appended to recycled chain")
	}
}

func TestMixBUFFAppendToChainWithIssuedTail(t *testing.T) {
	// The chain's last instruction has issued but the chain is still
	// busy (another instruction pending): a consumer of the issued
	// instruction may still append; pacing comes from the countdown.
	m := newTestMixBUFF(1, 8, 2)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, 1, isa.NoReg, 2) // chain: a -> b
	m.Dispatch(env, a)
	m.Dispatch(env, b)
	env.cycle = 1
	m.Issue(env, 8) // a issues; b pending; chain busy
	c := fpInst(2, 2, isa.NoReg, 3)
	m.Dispatch(env, c)
	if c.ChainID != b.ChainID || c.QueueID != b.QueueID {
		t.Fatal("consumer did not append to busy chain")
	}
}

func TestMixBUFFQueueFullForcesNewChainElsewhere(t *testing.T) {
	m := newTestMixBUFF(2, 2, 2)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, 1, isa.NoReg, 2)
	m.Dispatch(env, a)
	m.Dispatch(env, b) // queue 0 full
	c := fpInst(2, 2, isa.NoReg, 3)
	if !m.Dispatch(env, c) {
		t.Fatal("dispatch stalled although queue 1 has room")
	}
	if c.QueueID != 1 {
		t.Fatalf("consumer placed in queue %d, want 1", c.QueueID)
	}
}

func TestMixBUFFUnboundedChainsDefault(t *testing.T) {
	m := newTestMixBUFF(2, 16, 0)
	if m.chainN != 16 {
		t.Fatalf("unbounded chains = %d, want entries (16)", m.chainN)
	}
}

func TestMixBUFFRejectedSelectionKeepsEntry(t *testing.T) {
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	in := fpInst(0, 7, isa.NoReg, 8)
	env.block(true, 7) // operand not ready until its broadcast
	m.Dispatch(env, in)
	env.cycle = 1
	if n := m.Issue(env, 8); n != 0 {
		t.Fatal("issued with unready operand")
	}
	if m.Occupancy() != 1 {
		t.Fatal("rejected instruction lost")
	}
	env.cycle = 2
	env.wake(m, true, 7)
	if n := m.Issue(env, 8); n != 1 {
		t.Fatal("instruction did not issue once ready")
	}
}

func TestMixBUFFMispredictClearsTable(t *testing.T) {
	m := newTestMixBUFF(2, 8, 4)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	m.Dispatch(env, prod)
	m.OnMispredictResolved()
	cons := fpInst(1, 7, isa.NoReg, 8)
	m.Dispatch(env, cons)
	if cons.ChainID == prod.ChainID && cons.QueueID == prod.QueueID {
		t.Fatal("consumer used cleared chain mapping")
	}
}

func TestMixBUFFEnergyEvents(t *testing.T) {
	m := newTestMixBUFF(2, 8, 4)
	env := newFakeEnv()
	m.Dispatch(env, fpInst(0, 1, 2, 7))
	ev := m.Events()
	if ev.QRenameReads != 2 || ev.QRenameWrites != 1 || ev.BuffWrites != 1 {
		t.Fatalf("dispatch events: %+v", ev)
	}
	env.cycle = 1
	m.Issue(env, 8)
	if ev.SelectOps != 1 || ev.ChainReads != 1 || ev.ChainWrites != 1 {
		t.Fatalf("issue events: %+v", ev)
	}
	if ev.BuffReads != 1 || ev.SelRegWrites != 1 {
		t.Fatalf("issue events: %+v", ev)
	}
}

func TestConfigNamesAndValidation(t *testing.T) {
	cases := map[string]Config{
		"IQ_64_64":            Baseline64(),
		"IQ_unbounded":        Unbounded(),
		"IssueFIFO_8x8_16x16": IssueFIFOCfg(8, 8, 16, 16),
		"LatFIFO_16x16_10x8":  LatFIFOCfg(16, 16, 10, 8),
		"MixBUFF_16x16_12x16": MixBUFFCfg(16, 16, 12, 16, 0),
		"IF_distr":            IFDistr(),
		"MB_distr":            MBDistr(),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Errorf("name = %q, want %q", cfg.Name, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", want, err)
		}
	}
	if !MBDistr().DistributedFU || !IFDistr().DistributedFU {
		t.Error("distr configs must distribute FUs")
	}
	if MBDistr().FP.Chains != 8 {
		t.Error("MB_distr must use 8 chains per queue")
	}
	bad := Config{Name: "bad", Int: DomainConfig{Kind: KindCAM, Queues: 2, Entries: 4},
		FP: DomainConfig{Kind: KindCAM, Queues: 1, Entries: 4}}
	if bad.Validate() == nil {
		t.Error("multi-queue CAM validated")
	}
}

// TestValidateRejectsOversizedDomain: the schemes allocate a domain's
// entries up front, so Validate bounds the queues, the entries per
// queue and their product, each factor before the product is taken.
func TestValidateRejectsOversizedDomain(t *testing.T) {
	half := 1 << (strconv.IntSize / 2)
	for _, c := range []struct {
		queues, entries int
		ok              bool
	}{
		{1, 4096, true},
		{64, 64, true},
		{1, 4097, false},
		{4097, 1, false},
		{64, 65, false},
		{half, half, false}, // the product overflows to 0
	} {
		d := DomainConfig{Kind: KindIssueFIFO, Queues: c.queues, Entries: c.entries}
		if err := d.Validate(); (err == nil) != c.ok {
			t.Errorf("%dx%d: Validate() = %v, want ok %v", c.queues, c.entries, err, c.ok)
		}
	}
}

func TestNewSchemeErrors(t *testing.T) {
	if _, err := New(DomainConfig{Kind: KindLatFIFO, Queues: 2, Entries: 2},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Error("LatFIFO without estimator did not error")
	}
	if _, err := New(DomainConfig{Kind: Kind(99), Queues: 1, Entries: 2},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Error("unknown kind did not error")
	}
	if _, err := New(DomainConfig{Kind: KindCAM, Queues: 1, Entries: 0},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Error("zero entries did not error")
	}
}

func TestMixBUFFChainIssuesOldestFirstAndFreesWithLast(t *testing.T) {
	// A three-instruction chain of FPAdds (latency 2) issues head first,
	// one instruction per countdown, and frees with its last instruction.
	m := newTestMixBUFF(1, 8, 2)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, 1, isa.NoReg, 2)
	c := fpInst(2, 2, isa.NoReg, 3)
	for _, in := range []*isa.Inst{a, b, c} {
		if !m.Dispatch(env, in) || in.ChainID != 0 {
			t.Fatalf("seq %d not placed on chain 0", in.Seq)
		}
	}
	ch := &m.queues[0].chains[0]
	gen := ch.gen
	for cycle := int64(1); cycle <= 6; cycle++ {
		env.cycle = cycle
		m.Issue(env, 8)
		if cycle < 5 && (ch.head < 0 || ch.gen != gen) {
			t.Fatalf("cycle %d: chain freed before its last instruction issued", cycle)
		}
	}
	want := []*isa.Inst{a, b, c}
	if len(env.issued) != len(want) {
		t.Fatalf("issued %d instructions, want %d", len(env.issued), len(want))
	}
	for i, in := range want {
		if env.issued[i] != in {
			t.Fatalf("issue %d was seq %d, want %d", i, env.issued[i].Seq, in.Seq)
		}
	}
	if ch.head >= 0 || ch.tail >= 0 || ch.gen != gen+1 {
		t.Fatalf("chain not freed with its last instruction (head %d, tail %d, gen %d)",
			ch.head, ch.tail, ch.gen)
	}
	if d := fpInst(3, isa.NoReg, isa.NoReg, 4); !m.Dispatch(env, d) || d.ChainID != 0 {
		t.Fatal("freed chain 0 not reallocated first")
	}
}
