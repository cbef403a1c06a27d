package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
)

// TestMachineApply checks that overrides land on the right pipeline
// fields and zero fields keep Table 1 values.
func TestMachineApply(t *testing.T) {
	base := pipeline.DefaultConfig(core.Baseline64())
	m := &Machine{
		ROBSize: 128, FetchWidth: 4, IssueWidthInt: 4,
		IntALUs: 2, FPMuls: 2, L2Latency: 20, MemLatency: 200,
		PerfectDisambiguation: true,
	}
	c := m.Apply(base)
	if c.ROBSize != 128 || c.FetchWidth != 4 || c.DispatchWidth != 8 {
		t.Fatalf("rob/fetch wrong: %+v", c)
	}
	if c.IssueWidthInt != 4 || c.IssueWidthFP != 8 {
		t.Fatalf("issue widths wrong: %+v", c)
	}
	if c.FUCounts[isa.IntALUUnit] != 2 || c.FUCounts[isa.FPMulUnit] != 2 ||
		c.FUCounts[isa.IntMulUnit] != 4 {
		t.Fatalf("fu counts wrong: %v", c.FUCounts)
	}
	if c.Hier.L2.Latency != 20 || c.Hier.Mem.FirstChunk != 200 || c.Hier.L1D.Latency != 2 {
		t.Fatalf("memory latencies wrong: %+v", c.Hier)
	}
	if !c.PerfectDisambiguation {
		t.Fatal("perfect disambiguation not applied")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// nil machine is the identity (Config holds a func field, so
	// compare via the canonical rendering).
	var none *Machine
	if machCanon(none.Apply(base)) != machCanon(base) {
		t.Fatal("nil Apply changed the config")
	}
}

// TestMachineFingerprintFields verifies every supported override moves
// the job fingerprint (no silently-ignored axis).
func TestMachineFingerprintFields(t *testing.T) {
	base := quickJob("swim", core.Baseline64())
	fpBase, ok := base.Fingerprint()
	if !ok {
		t.Fatal("base job not addressable")
	}
	muts := map[string]Machine{
		"fetch":  {FetchWidth: 4},
		"disp":   {DispatchWidth: 4},
		"iwint":  {IssueWidthInt: 4},
		"iwfp":   {IssueWidthFP: 4},
		"commit": {CommitWidth: 4},
		"fq":     {FetchQueue: 32},
		"rob":    {ROBSize: 128},
		"alu":    {IntALUs: 4},
		"imul":   {IntMuls: 2},
		"fadd":   {FPAdders: 2},
		"fmul":   {FPMuls: 2},
		"l1d":    {L1DLatency: 4},
		"l2":     {L2Latency: 20},
		"mem":    {MemLatency: 200},
		"pdis":   {PerfectDisambiguation: true},
	}
	seen := map[string]string{fpBase: "default"}
	for name, m := range muts {
		j := base
		mm := m
		j.Machine = &mm
		fp, ok := j.Fingerprint()
		if !ok {
			t.Fatalf("%s: not addressable", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("override %s collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

// TestMachineDefaultNormalizes checks that an override restating Table 1
// defaults is identical to no override, in memory key and fingerprint.
func TestMachineDefaultNormalizes(t *testing.T) {
	plain := quickJob("swim", core.MBDistr())
	restated := plain
	restated.Machine = &Machine{ROBSize: 256, FetchWidth: 8, CommitWidth: 8, MemLatency: 100}
	fp1, _ := plain.Fingerprint()
	fp2, _ := restated.Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("restated defaults changed the fingerprint: %s vs %s", fp1, fp2)
	}
	if plain.Key() != restated.Key() {
		t.Fatal("restated defaults changed the memo key")
	}
}

// TestFingerprintGolden pins the content-address format: these hashes
// only move when the job identity scheme (or store version) changes,
// which must be a deliberate, reviewed event — it invalidates every
// on-disk cache.
func TestFingerprintGolden(t *testing.T) {
	j1 := Job{Bench: "swim", Config: core.Baseline64(),
		Opt: Options{Warmup: 5000, Instructions: 20000}}
	j2 := j1
	j2.Machine = &Machine{ROBSize: 128, PerfectDisambiguation: true}
	const (
		want1 = "a372fba595124079099e1536c87bce413f7fc04bf128771bf93cedf2c306aaf7"
		want2 = "d3774551742ffdde9fe7df27688e30baff16062fcf3fadc20aeecd395020fcd5"
	)
	if fp, _ := j1.Fingerprint(); fp != want1 {
		t.Errorf("baseline job fingerprint = %s, want %s", fp, want1)
	}
	if fp, _ := j2.Fingerprint(); fp != want2 {
		t.Errorf("machine-override job fingerprint = %s, want %s", fp, want2)
	}
}

// TestStoreV1EntryReadsAsMiss verifies the distiq-v2 format bump: a
// stale version-1 entry sitting at a job's content address is a cache
// miss (and is later overwritten), never a hit.
func TestStoreV1EntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	job := quickJob("swim", core.Baseline64())
	fp, ok := job.Fingerprint()
	if !ok {
		t.Fatal("job not addressable")
	}
	// A v1-era entry: same benchmark/config/options, old version tag,
	// no machine segment.
	stale := map[string]any{
		"version":      1,
		"benchmark":    job.Bench,
		"config":       job.Config.Name,
		"warmup":       job.Opt.Warmup,
		"instructions": job.Opt.Instructions,
		"result":       Result{},
	}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fp+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit := st.Get(fp, job); hit {
		t.Fatal("stale v1 entry served as a hit")
	}
	// And a fresh Put supersedes it.
	var r Result
	r.Benchmark = job.Bench
	if err := st.Put(fp, job, r); err != nil {
		t.Fatal(err)
	}
	got, hit := st.Get(fp, job)
	if !hit || got.Benchmark != job.Bench {
		t.Fatal("fresh v2 entry not readable after overwrite")
	}
}

// normalizeForTest independently maps a Machine override to the full
// machine it denotes, duplicating the Table 1 defaults on purpose: if
// Apply and this table disagree, either the defaults moved (update both
// deliberately) or Apply has a bug.
func normalizeForTest(m Machine) [15]int {
	def := func(v, d int) int {
		if v != 0 {
			return v
		}
		return d
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return [15]int{
		def(m.FetchWidth, 8),
		def(m.DispatchWidth, 8),
		def(m.IssueWidthInt, 8), def(m.IssueWidthFP, 8),
		def(m.CommitWidth, 8), def(m.FetchQueue, 64), def(m.ROBSize, 256),
		def(m.IntALUs, 8), def(m.IntMuls, 4), def(m.FPAdders, 4), def(m.FPMuls, 4),
		def(m.L1DLatency, 2), def(m.L2Latency, 10), def(m.MemLatency, 100),
		b2i(m.PerfectDisambiguation),
	}
}

// machineSeed is the fuzz input of one machine override (fuzzMachine).
type machineSeed struct {
	rob, fw, alu, l2 int
	perfect          bool
}

func (s machineSeed) machine() Machine { return fuzzMachine(s.rob, s.fw, s.alu, s.l2, s.perfect) }

// machineFingerprintSeeds is FuzzMachineFingerprint's seed corpus: two
// machine overrides per entry.
var machineFingerprintSeeds = [][2]machineSeed{
	{{128, 0, 2, 0, false}, {256, 8, 0, 20, true}},
	{{0, 0, 0, 0, false}, {0, 0, 0, 0, false}},
	{{64, 4, 4, 1, true}, {64, 4, 4, 1, true}},
}

// fuzzMachine maps fuzz inputs onto a valid machine override: a
// power-of-two ROB, a fetch width, an integer ALU count and an L2
// latency, each zero (the default) or in range.
func fuzzMachine(rob, fw, alu, l2 int, perfect bool) Machine {
	clampPow2 := func(v int) int {
		switch {
		case v <= 0:
			return 0
		case v < 96:
			return 64
		case v < 192:
			return 128
		default:
			return 256
		}
	}
	clamp := func(v, hi int) int {
		if v <= 0 {
			return 0
		}
		return v%hi + 1
	}
	return Machine{ROBSize: clampPow2(rob), FetchWidth: clamp(fw, 8),
		IntALUs: clamp(alu, 8), L2Latency: clamp(l2, 30), PerfectDisambiguation: perfect}
}

// FuzzMachineFingerprint checks the injectivity contract of job
// identity under machine overrides: two overrides denote the same
// machine (after default-normalization) exactly when their fingerprints
// match, fingerprints are stable across computations, and every
// identity equals its fmt rendering (checkOracle).
func FuzzMachineFingerprint(f *testing.F) {
	for _, s := range machineFingerprintSeeds {
		a, b := s[0], s[1]
		f.Add(a.rob, a.fw, a.alu, a.l2, a.perfect, b.rob, b.fw, b.alu, b.l2, b.perfect)
	}
	f.Fuzz(func(t *testing.T, rob1, fw1, alu1, l2a int, p1 bool,
		rob2, fw2, alu2, l2b int, p2 bool) {
		m1 := fuzzMachine(rob1, fw1, alu1, l2a, p1)
		m2 := fuzzMachine(rob2, fw2, alu2, l2b, p2)
		j1 := quickJob("swim", core.MBDistr())
		j1.Machine = &m1
		j2 := quickJob("swim", core.MBDistr())
		j2.Machine = &m2
		checkOracle(t, j1)
		checkOracle(t, j2)
		fp1a, ok1 := j1.Fingerprint()
		fp1b, _ := j1.Fingerprint()
		fp2, ok2 := j2.Fingerprint()
		if !ok1 || !ok2 {
			t.Fatal("machine jobs must be addressable")
		}
		if fp1a != fp1b {
			t.Fatalf("fingerprint unstable: %s vs %s", fp1a, fp1b)
		}
		n1, n2 := normalizeForTest(m1), normalizeForTest(m2)
		if (n1 == n2) != (fp1a == fp2) {
			t.Fatalf("injectivity violated: machines %+v vs %+v, normalized %v vs %v, fingerprints %s vs %s",
				m1, m2, n1, n2, fp1a, fp2)
		}
	})
}

// TestSimulateRejectsMemLatencyPastRing: a memory latency at which a
// load missing every cache level would complete beyond the pipeline's
// completion ring is an error from Simulate, not a panic on the worker.
// On the Table 1 machine such a load takes 1 + 2 + 10 cycles plus the
// memory latency, and the ring holds 1,024.
func TestSimulateRejectsMemLatencyPastRing(t *testing.T) {
	for _, lat := range []int{2000, 1011} {
		j := Job{Bench: "mcf", Config: core.Baseline64(), Opt: Options{Warmup: 100, Instructions: 2000},
			Machine: &Machine{MemLatency: lat}}
		if _, err := Simulate(j); err == nil {
			t.Errorf("Simulate accepted a %d-cycle memory latency", lat)
		}
	}
}
