package engine

// The cross-backend conformance suite: every ResultStore implementation
// must satisfy the same observable contract (documented on the
// interface), so the engine's warm-rerun, single-flight and manifest
// semantics hold whichever backend is selected. Each invariant runs
// against every backend — filesystem and in-memory — over fresh backing
// state.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"distiq/internal/core"
)

// confFactory builds a fresh store over fresh backing state plus a
// reopen function returning a second handle over the SAME backing state
// — the cross-process view: everything Put before reopen must be visible
// through the new handle.
type confFactory func(t *testing.T) (store ResultStore, reopen func() ResultStore)

// confFactories enumerates every ResultStore under conformance: the
// on-disk Store and the MemStore reference. A new implementation lands
// here or its contract is unproven.
func confFactories() map[string]confFactory {
	return map[string]confFactory{
		"fs": func(t *testing.T) (ResultStore, func() ResultStore) {
			dir := t.TempDir()
			return NewStore(dir), func() ResultStore { return NewStore(dir) }
		},
		"mem": func(t *testing.T) (ResultStore, func() ResultStore) {
			// A MemStore is process-local: "reopening" the same backing
			// state means sharing the value, as engines sharing one store
			// handle do.
			s := NewMemStore()
			return s, func() ResultStore { return s }
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range confFactories() {
		t.Run(name, func(t *testing.T) { testStoreConformance(t, mk) })
	}
}

// confResult is a distinguishable deterministic result for job.
func confResult(job Job) Result {
	var r Result
	r.Benchmark = job.Bench
	r.Config = job.Config.Name
	r.Insts = job.Opt.Instructions
	r.Cycles = job.Opt.Instructions / 2
	r.IQEnergy = 4242
	return r
}

// staleEntryBytes renders an otherwise-valid entry carrying a previous
// format version, as a store left behind by an older build would hold.
func staleEntryBytes(job Job, r Result) ([]byte, error) {
	ent := entry{
		Version:      storeVersion - 1,
		Benchmark:    job.Bench,
		Config:       job.Config.Name,
		Machine:      job.machineCanon(),
		Warmup:       job.Opt.Warmup,
		Instructions: job.Opt.Instructions,
		Result:       r,
	}
	return json.MarshalIndent(ent, "", " ")
}

// testStoreConformance pins the ResultStore contract against one
// backend. mk is called per invariant, so each starts from empty state.
func testStoreConformance(t *testing.T, mk confFactory) {
	job := quickJob("swim", core.MBDistr())
	fp, ok := job.Fingerprint()
	if !ok {
		t.Fatal("conformance job not content-addressable")
	}
	res := confResult(job)
	want, err := entryBytes(job, res)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("AbsentIsMiss", func(t *testing.T) {
		st, _ := mk(t)
		if _, ok := st.Get(fp, job); ok {
			t.Fatal("Get hit on an empty store")
		}
		if st.Has(fp) {
			t.Fatal("Has true on an empty store")
		}
		if _, err := st.Raw(fp); err == nil {
			t.Fatal("Raw succeeded on an empty store")
		}
	})

	t.Run("PutGetRoundTrip", func(t *testing.T) {
		st, _ := mk(t)
		if err := st.Put(fp, job, res); err != nil {
			t.Fatal(err)
		}
		got, ok := st.Get(fp, job)
		if !ok {
			t.Fatal("Put-then-Get missed")
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("round trip altered the result: %+v vs %+v", got, res)
		}
		if !st.Has(fp) {
			t.Fatal("Has false after Put")
		}
		raw, err := st.Raw(fp)
		if err != nil {
			t.Fatal(err)
		}
		// Byte identity is what manifest verification hashes: every
		// backend must hold the exact canonical entry encoding.
		if !bytes.Equal(raw, want) {
			t.Fatalf("Raw bytes differ from the canonical entry encoding:\n got %q\nwant %q", raw, want)
		}
	})

	t.Run("IdentityMismatchIsMiss", func(t *testing.T) {
		st, _ := mk(t)
		if err := st.Put(fp, job, res); err != nil {
			t.Fatal(err)
		}
		other := quickJob("gzip", core.Baseline64())
		if _, ok := st.Get(fp, other); ok {
			t.Fatal("entry stored for one job served to another")
		}
	})

	t.Run("StaleVersionIsMiss", func(t *testing.T) {
		st, _ := mk(t)
		stale, err := staleEntryBytes(job, res)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.(RawPutter).PutRaw(fp, stale); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(fp, job); ok {
			t.Fatal("stale-version entry served as a hit")
		}
		// Has reports raw existence without validating — the stale entry
		// is present, just never served.
		if !st.Has(fp) {
			t.Fatal("Has false for a present (if stale) entry")
		}
	})

	t.Run("TornWriteIsMiss", func(t *testing.T) {
		st, _ := mk(t)
		if err := st.(RawPutter).PutRaw(fp, want[:len(want)/2]); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(fp, job); ok {
			t.Fatal("torn entry served as a hit")
		}
	})

	t.Run("ConcurrentPutIdempotent", func(t *testing.T) {
		st, _ := mk(t)
		const writers = 16
		errs := make([]error, writers)
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = st.Put(fp, job, res)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("concurrent Put %d: %v", i, err)
			}
		}
		got, ok := st.Get(fp, job)
		if !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("entry invalid after concurrent Puts: ok=%v %+v", ok, got)
		}
		raw, err := st.Raw(fp)
		if err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("raw bytes damaged by concurrent Puts (err=%v)", err)
		}
	})

	t.Run("CrossProcessReuse", func(t *testing.T) {
		st, reopen := mk(t)
		if err := st.Put(fp, job, res); err != nil {
			t.Fatal(err)
		}
		st2 := reopen()
		got, ok := st2.Get(fp, job)
		if !ok {
			t.Fatal("second handle over the same backing state missed")
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("second handle altered the result: %+v vs %+v", got, res)
		}
		raw, err := st2.Raw(fp)
		if err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("second handle's raw bytes differ (err=%v)", err)
		}
	})
}
