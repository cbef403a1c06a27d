package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distiq/internal/core"
	"distiq/internal/power"
)

func TestFingerprintStableAndDistinct(t *testing.T) {
	a := quickJob("swim", core.Baseline64())
	fp1, ok := a.Fingerprint()
	if !ok || len(fp1) != 64 {
		t.Fatalf("fingerprint = %q, %v", fp1, ok)
	}
	fp2, _ := quickJob("swim", core.Baseline64()).Fingerprint()
	if fp1 != fp2 {
		t.Fatal("fingerprint not stable for identical jobs")
	}
	distinct := []Job{
		quickJob("gzip", core.Baseline64()),
		quickJob("swim", core.MBDistr()),
		{Bench: "swim", Config: core.Baseline64(), Opt: Options{Warmup: 1000, Instructions: 5000}},
	}
	for i, j := range distinct {
		if fp, _ := j.Fingerprint(); fp == fp1 {
			t.Fatalf("job %d collides with baseline fingerprint", i)
		}
	}
	// Same name, different structure must differ too (iqsim renames).
	renamed := core.MixBUFFCfg(8, 8, 8, 16, 4)
	renamed.Name = "IQ_64_64"
	if fp, _ := quickJob("swim", renamed).Fingerprint(); fp == fp1 {
		t.Fatal("structural difference not captured by fingerprint")
	}
}

func TestFingerprintRefusesCustomSchemes(t *testing.T) {
	cfg := core.Baseline64()
	cfg.FP.Custom = func(core.DomainConfig, core.Options) (core.Scheme, error) { return nil, nil }
	if _, ok := quickJob("swim", cfg).Fingerprint(); ok {
		t.Fatal("custom scheme config must not be content-addressable")
	}
	// But it still has a usable in-process key.
	if quickJob("swim", cfg).Key() == "" {
		t.Fatal("custom job key empty")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir())
	job := quickJob("swim", core.IFDistr())
	fp, _ := job.Fingerprint()

	var r Result
	r.Benchmark = "swim"
	r.Config = "IF_distr"
	r.Insts = 4000
	r.Cycles = 1717
	r.IQEnergy = 123456.789012345
	r.Stats.Committed = 4000
	r.Stats.Cycles = 1717
	r.Stats.ByClass[0] = 42
	r.IntBreakdown = power.Breakdown{"fifo": 1.25, "select": 2.5}
	r.FPBreakdown = power.Breakdown{"fifo": 3.0625}
	r.Breakdown = power.Breakdown{"fifo": 4.3125, "select": 2.5}

	if err := s.Put(fp, job, r); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp, job)
	if !ok {
		t.Fatal("stored result not found")
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, r)
	}
}

func TestStoreRejectsMismatchAndGarbage(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	job := quickJob("swim", core.Baseline64())
	fp, _ := job.Fingerprint()
	var r Result
	r.Benchmark = "swim"
	if err := s.Put(fp, job, r); err != nil {
		t.Fatal(err)
	}
	// A job with different identity must miss even under the same file.
	other := quickJob("gzip", core.Baseline64())
	if _, ok := s.Get(fp, other); ok {
		t.Fatal("mismatched identity served from store")
	}
	// Corrupt entries are misses, not errors.
	if err := os.WriteFile(s.path(fp), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp, job); ok {
		t.Fatal("corrupt entry served")
	}
	// Missing files are misses.
	if _, ok := s.Get("0000", job); ok {
		t.Fatal("missing entry served")
	}
}

func TestEngineDiskStoreCrossProcessReuse(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		quickJob("swim", core.Baseline64()),
		quickJob("gzip", core.MBDistr()),
	}

	var callsA sync.Map
	a := New(Config{Workers: 2, Store: NewStore(dir), Simulate: countingSim(&callsA, 0)})
	wantRes, err := a.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := totalCalls(&callsA); n != 2 {
		t.Fatalf("first engine simulated %d, want 2", n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("store files = %v, %v", files, err)
	}

	// A second engine (a new process, in effect) must serve both jobs
	// from disk and simulate nothing.
	var refuse atomic.Int64
	b := New(Config{Workers: 2, Store: NewStore(dir), Simulate: func(Job) (Result, error) {
		refuse.Add(1)
		return Result{}, nil
	}})
	got, err := b.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if refuse.Load() != 0 {
		t.Fatalf("second engine simulated %d jobs, want 0", refuse.Load())
	}
	if !reflect.DeepEqual(got, wantRes) {
		t.Fatal("disk-served results differ from originals")
	}
	st := b.Stats()
	if st.DiskHits != 2 || st.Simulated != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineCustomConfigSkipsStore(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Baseline64()
	cfg.Name = "custom"
	cfg.FP.Custom = func(d core.DomainConfig, o core.Options) (core.Scheme, error) {
		d.Custom = nil
		return core.New(d, o)
	}
	var calls sync.Map
	e := New(Config{Workers: 1, Store: NewStore(dir), Simulate: countingSim(&calls, 0)})
	if _, err := e.Result(quickJob("swim", cfg)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 0 {
		t.Fatalf("custom-scheme result persisted: %v", files)
	}
	// In-memory memoization still applies.
	if _, err := e.Result(quickJob("swim", cfg)); err != nil {
		t.Fatal(err)
	}
	if n := totalCalls(&calls); n != 1 {
		t.Fatalf("simulated %d, want 1", n)
	}
}

// TestStoreSweepsStaleTemps is the temp-file leak regression: a crash
// between CreateTemp and Rename used to orphan ".FP.tmp*" files forever.
// Opening a store must sweep temps older than the staleness cutoff while
// leaving fresh ones (a live writer in another process) alone.
func TestStoreSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".deadbeef.tmp123")
	fresh := filepath.Join(dir, ".cafebabe.tmp456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpStaleAfter)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// A real entry must never be swept, whatever its age.
	s := NewStore(dir)
	job := quickJob("swim", core.Baseline64())
	fp, _ := job.Fingerprint()
	if err := s.Put(fp, job, Result{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(s.path(fp), old, old); err != nil {
		t.Fatal(err)
	}

	NewStore(dir) // the sweep under test

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived the sweep (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp was swept: %v", err)
	}
	if _, err := os.Stat(s.path(fp)); err != nil {
		t.Fatalf("real entry was swept: %v", err)
	}
}

// TestEngineBatchRespectsStore: a job already persisted resolves as a
// disk hit inside a batch call, the remaining distinct simulations run,
// and every job's result persists for the next process. gcc has no FP
// operation, so its MB_distr job takes IF_distr's run, in memory or in
// flight, instead of simulating or reading its own entry.
func TestEngineBatchRespectsStore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	jobs := []Job{
		quickJob("gcc", core.Baseline64()),
		quickJob("gcc", core.IFDistr()),
		quickJob("gcc", core.MBDistr()),
	}
	seed := New(Config{Workers: 1, Store: NewStore(dir)})
	if _, err := seed.Result(jobs[0]); err != nil {
		t.Fatal(err)
	}

	e := New(Config{Workers: 1, Store: NewStore(dir)})
	got, err := e.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DiskHits != 1 || st.Simulated != 1 || st.MemoryHits+st.Shared != 1 {
		t.Errorf("stats = %+v, want DiskHits=1 Simulated=1 MemoryHits+Shared=1", st)
	}
	// Everything is on disk now: a third engine resolves all three warm.
	store := NewStore(dir)
	for _, j := range jobs {
		if fp, _ := j.Fingerprint(); !store.Has(fp) {
			t.Errorf("%s under %s not persisted", j.Bench, j.Config.Name)
		}
	}
	warm := New(Config{Workers: 1, Store: NewStore(dir)})
	again, err := warm.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if wst := warm.Stats(); wst.DiskHits != 2 || wst.Simulated != 0 || wst.MemoryHits+wst.Shared != 1 {
		t.Errorf("warm engine stats = %+v, want DiskHits=2 Simulated=0 MemoryHits+Shared=1", wst)
	}
	if !reflect.DeepEqual(got, again) {
		t.Error("store round-trip changed results")
	}
}
