package bpred

import (
	"testing"

	"distiq/internal/rng"
)

func TestCounterSaturation(t *testing.T) {
	c := counter2(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Fatalf("counter under-saturated to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Fatalf("counter over-saturated to %d", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(64)
	pc := uint64(0x1000)
	for i := 0; i < 8; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal failed to learn always-taken")
	}
	for i := 0; i < 8; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal failed to learn always-not-taken")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// Alternating T/NT is invisible to bimodal but trivial for gshare.
	g := NewGshare(2048)
	pc := uint64(0x2000)
	taken := false
	correct := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
		taken = !taken
	}
	// After warmup it should be near-perfect.
	if correct < n*9/10 {
		t.Fatalf("gshare only got %d/%d on alternating pattern", correct, n)
	}
}

func TestHybridBeatsWorstComponent(t *testing.T) {
	// Branch A alternates (good for gshare), branch B is heavily biased
	// (good for bimodal). The hybrid should do well on both.
	h := NewDefaultHybrid()
	r := rng.New(5)
	takenA := false
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		if h.PredictAndTrain(0x4000, takenA) {
			correct++
		}
		takenA = !takenA
		outB := r.Float64() < 0.95
		if h.PredictAndTrain(0x8000, outB) {
			correct++
		}
		total += 2
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 {
		t.Fatalf("hybrid accuracy %.3f, want > 0.85", acc)
	}
	if got := h.Accuracy(); got < 0.85 {
		t.Fatalf("Accuracy() = %.3f disagrees", got)
	}
}

func TestHybridAccuracyNoLookups(t *testing.T) {
	if acc := NewDefaultHybrid().Accuracy(); acc != 1.0 {
		t.Fatalf("accuracy with no lookups = %v, want 1.0", acc)
	}
}

func TestHybridRandomBranchNearChance(t *testing.T) {
	h := NewDefaultHybrid()
	r := rng.New(17)
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if h.PredictAndTrain(0xc000, r.Bool(0.5)) {
			correct++
		}
	}
	acc := float64(correct) / n
	if acc < 0.40 || acc > 0.60 {
		t.Fatalf("accuracy on random outcomes = %.3f, want ~0.5", acc)
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewBimodal(0) },
		func() { NewBimodal(100) },
		func() { NewGshare(-2) },
		func() { NewHybrid(2048, 2048, 1000) },
		func() { NewBTB(0, 4) },
		func() { NewBTB(2048, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBTBHitAfterInsert(t *testing.T) {
	b := NewDefaultBTB()
	b.Insert(0x1000, 0x2000)
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x2000 {
		t.Fatalf("Lookup = (%#x, %v), want (0x2000, true)", tgt, hit)
	}
	if _, hit := b.Lookup(0x3000); hit {
		t.Fatal("lookup of never-inserted PC hit")
	}
	if b.Hits != 1 || b.Misses != 1 {
		t.Fatalf("counters = %d hits %d misses, want 1/1", b.Hits, b.Misses)
	}
}

func TestBTBUpdateExisting(t *testing.T) {
	b := NewDefaultBTB()
	b.Insert(0x1000, 0x2000)
	b.Insert(0x1000, 0x9000)
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x9000 {
		t.Fatalf("Lookup after update = (%#x, %v)", tgt, hit)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	// 4 ways per set: insert 5 conflicting branches; the first (LRU)
	// must be evicted, the other four retained.
	b := NewBTB(16, 4) // 4 sets
	setStride := uint64(4 * 4)
	pcs := make([]uint64, 5)
	for i := range pcs {
		pcs[i] = 0x1000 + uint64(i)*setStride // same set index
		b.Insert(pcs[i], uint64(0x100+i))
	}
	if _, hit := b.Lookup(pcs[0]); hit {
		t.Fatal("LRU entry was not evicted")
	}
	for i := 1; i < 5; i++ {
		if _, hit := b.Lookup(pcs[i]); !hit {
			t.Fatalf("entry %d wrongly evicted", i)
		}
	}
}

func TestBTBLRUTouchOnLookup(t *testing.T) {
	b := NewBTB(16, 4)
	setStride := uint64(4 * 4)
	pcs := make([]uint64, 5)
	for i := range pcs {
		pcs[i] = 0x1000 + uint64(i)*setStride
	}
	for i := 0; i < 4; i++ {
		b.Insert(pcs[i], 1)
	}
	b.Lookup(pcs[0]) // make pc0 MRU; pc1 becomes LRU
	b.Insert(pcs[4], 1)
	if _, hit := b.Lookup(pcs[0]); !hit {
		t.Fatal("recently touched entry evicted")
	}
	if _, hit := b.Lookup(pcs[1]); hit {
		t.Fatal("expected pc1 to be the LRU victim")
	}
}

func BenchmarkHybridPredictAndTrain(b *testing.B) {
	h := NewDefaultHybrid()
	r := rng.New(1)
	pcs := make([]uint64, 64)
	outs := make([]bool, 64)
	for i := range pcs {
		pcs[i] = uint64(0x1000 + i*4)
		outs[i] = r.Bool(0.7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PredictAndTrain(pcs[i%64], outs[i%64])
	}
}

// TestReleasedBTBIsFresh pins Release's contract: a BTB built on entry
// arrays another BTB released, here of twice the associativity, starts
// with every tag and target cleared, the LRU ranks of a fresh BTB and
// zero counters. sync.Pool may drop a released object (it does so at
// random under -race), so the test releases until one is reused.
func TestReleasedBTBIsFresh(t *testing.T) {
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		old := NewBTB(2048, 4)
		for pc := uint64(4); pc < 1<<16; pc += 4 {
			old.Insert(pc, pc+64)
			old.Lookup(pc)
		}
		tags := &old.tags[0]
		old.Release()
		b := NewBTB(2048, 2)
		reused = &b.tags[0] == tags
		for i := range b.tags {
			if b.tags[i] != 0 || b.targs[i] != 0 || b.lru[i] != uint8(i%2) {
				t.Fatalf("entry %d: tag %#x target %#x lru %d, want 0 0 %d", i, b.tags[i], b.targs[i], b.lru[i], i%2)
			}
		}
		if b.Hits != 0 || b.Misses != 0 {
			t.Fatalf("counters %d/%d, want zero", b.Hits, b.Misses)
		}
		b.Release()
	}
	if !reused {
		t.Fatal("no BTB reused released entry arrays in 100 tries")
	}
}
