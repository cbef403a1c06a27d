package engine

import (
	"strings"
	"testing"

	"distiq/internal/core"
)

// TestSeedZeroIdentityUnchanged pins that the replication axis is
// invisible at seed zero: the canonical string (an addressable job's
// key) has no seed segment, so every pre-axis fingerprint (and warm
// store entry) stays valid.
func TestSeedZeroIdentityUnchanged(t *testing.T) {
	j := Job{Bench: "swim", Config: core.MBDistr(), Opt: Options{Warmup: 100, Instructions: 1000}}
	c0 := j.Key()
	if strings.Contains(c0, "seed:") {
		t.Fatalf("seed-zero canonical carries a seed segment: %s", c0)
	}
	j.Seed = 7
	c7 := j.Key()
	if !strings.HasSuffix(c7, "|seed:7") {
		t.Fatalf("seeded canonical missing seed segment: %s", c7)
	}
	if !strings.HasPrefix(c7, c0) {
		t.Fatalf("seed segment must append, not rewrite: %q vs %q", c0, c7)
	}
}

// TestSeedDistinctFingerprints verifies distinct replication seeds get
// distinct fingerprints (distinct store entries).
func TestSeedDistinctFingerprints(t *testing.T) {
	opt := Options{Warmup: 100, Instructions: 1000}
	seen := map[string]uint64{}
	for _, seed := range []uint64{0, 1, 2, 7, 1 << 40} {
		j := Job{Bench: "swim", Config: core.Baseline64(), Opt: opt, Seed: seed}
		fp, ok := j.Fingerprint()
		if !ok {
			t.Fatalf("seed %d: no fingerprint", seed)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("seeds %d and %d share fingerprint %s", prev, seed, fp)
		}
		seen[fp] = seed
	}
}

// TestSeedPerturbsResults checks a non-zero seed actually changes the
// replayed instruction stream: the measured run differs from canonical,
// and the same seed reproduces itself exactly.
func TestSeedPerturbsResults(t *testing.T) {
	opt := Options{Warmup: 1_000, Instructions: 10_000}
	base := Job{Bench: "swim", Config: core.Baseline64(), Opt: opt}
	r0, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	seeded := base
	seeded.Seed = 3
	r3, err := Simulate(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cycles == r3.Cycles && r0.IQEnergy == r3.IQEnergy {
		t.Fatal("seed 3 reproduced the canonical stream exactly; the perturbation is not reaching the model")
	}
	again, err := Simulate(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != r3.Cycles || again.IQEnergy != r3.IQEnergy {
		t.Fatal("same seed did not reproduce the same result")
	}
}
