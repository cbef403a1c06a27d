package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"distiq/internal/core"
)

// stubResult produces a deterministic, distinguishable result for leaf
// hashing without running a simulation.
func stubResult(i int) Result {
	var r Result
	r.Benchmark = "swim"
	r.Insts = uint64(1000 + i)
	r.Cycles = uint64(2000 + i)
	return r
}

func manifestJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = quickJob("swim", core.Baseline64())
		jobs[i].Opt.Instructions += uint64(i) // distinct fingerprints
	}
	return jobs
}

func manifestResults(n int) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i] = stubResult(i)
	}
	return out
}

func TestMerkleRootConstruction(t *testing.T) {
	leaf := func(b byte) []byte {
		h := sha256.Sum256([]byte{b})
		return h[:]
	}
	inner := func(l, r []byte) []byte {
		h := sha256.New()
		h.Write([]byte{0x01})
		h.Write(l)
		h.Write(r)
		return h.Sum(nil)
	}
	empty := sha256.Sum256(nil)
	if got := merkleRoot(nil); got != hex.EncodeToString(empty[:]) {
		t.Errorf("empty root = %s, want hash of empty string", got)
	}
	l0, l1, l2 := leaf(0), leaf(1), leaf(2)
	if got := merkleRoot([][]byte{l0}); got != hex.EncodeToString(l0) {
		t.Errorf("single-leaf root = %s, want the leaf itself", got)
	}
	if got, want := merkleRoot([][]byte{l0, l1}), hex.EncodeToString(inner(l0, l1)); got != want {
		t.Errorf("two-leaf root = %s, want %s", got, want)
	}
	// Odd leaf promoted unchanged: root(l0,l1,l2) = inner(inner(l0,l1), l2).
	if got, want := merkleRoot([][]byte{l0, l1, l2}), hex.EncodeToString(inner(inner(l0, l1), l2)); got != want {
		t.Errorf("three-leaf root = %s, want odd-promotion %s", got, want)
	}
}

func TestBuildManifestDeterministicAndChecks(t *testing.T) {
	jobs, results := manifestJobs(4), manifestResults(4)
	m, err := BuildManifest("sweep-1", jobs, results)
	if err != nil {
		t.Fatalf("BuildManifest: %v", err)
	}
	if err := m.Check(); err != nil {
		t.Errorf("fresh manifest fails Check: %v", err)
	}
	if m.Version != ManifestVersion || m.Algo != ManifestAlgo || m.Points != 4 || len(m.Leaves) != 4 {
		t.Errorf("manifest header wrong: %+v", m)
	}
	for i, leaf := range m.Leaves {
		fp, _ := jobs[i].Fingerprint()
		if leaf.Index != i || leaf.Fingerprint != fp || leaf.Benchmark != "swim" {
			t.Errorf("leaf %d wrong: %+v", i, leaf)
		}
	}
	again, err := BuildManifest("sweep-1", jobs, results)
	if err != nil {
		t.Fatalf("BuildManifest (again): %v", err)
	}
	if again.Root != m.Root {
		t.Errorf("same inputs produced different roots: %s vs %s", m.Root, again.Root)
	}
	// Any result change moves the root.
	mutated := manifestResults(4)
	mutated[2].Cycles++
	other, err := BuildManifest("sweep-1", jobs, mutated)
	if err != nil {
		t.Fatalf("BuildManifest (mutated): %v", err)
	}
	if other.Root == m.Root {
		t.Error("mutated result did not change the root")
	}
}

func TestBuildManifestRejectsBadInput(t *testing.T) {
	jobs := manifestJobs(2)
	if _, err := BuildManifest("x", jobs, manifestResults(3)); err == nil {
		t.Error("length mismatch accepted")
	}
	custom := core.Baseline64()
	custom.Int.Custom = func(core.DomainConfig, core.Options) (core.Scheme, error) { return nil, nil }
	jobs[1].Config = custom
	if _, err := BuildManifest("x", jobs, manifestResults(2)); err == nil {
		t.Error("custom-scheme job accepted into manifest")
	}
}

func TestManifestCheckRejectsTampering(t *testing.T) {
	jobs, results := manifestJobs(3), manifestResults(3)
	fresh := func() *Manifest {
		m, err := BuildManifest("s", jobs, results)
		if err != nil {
			t.Fatalf("BuildManifest: %v", err)
		}
		return m
	}
	cases := map[string]func(*Manifest){
		"version":       func(m *Manifest) { m.Version = "distiq-manifest-v0" },
		"algo":          func(m *Manifest) { m.Algo = "md5" },
		"points":        func(m *Manifest) { m.Points = 2 },
		"leaf order":    func(m *Manifest) { m.Leaves[0], m.Leaves[1] = m.Leaves[1], m.Leaves[0] },
		"leaf hash":     func(m *Manifest) { m.Leaves[1].Hash = m.Leaves[0].Hash },
		"root":          func(m *Manifest) { m.Root = strings.Repeat("0", 64) },
		"malformed":     func(m *Manifest) { m.Leaves[2].Hash = "zz" },
		"fingerprint":   func(m *Manifest) { m.Leaves[0].Fingerprint = "abc" },
		"dropped leaf":  func(m *Manifest) { m.Leaves = m.Leaves[:2]; m.Points = 2 },
		"appended leaf": func(m *Manifest) { m.Leaves = append(m.Leaves, m.Leaves[2]); m.Points = 4 },
	}
	for name, tamper := range cases {
		m := fresh()
		tamper(m)
		if err := m.Check(); err == nil {
			t.Errorf("%s tampering passed Check", name)
		}
	}
}

func TestManifestVerifyStoreAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	jobs, results := manifestJobs(4), manifestResults(4)
	for i, job := range jobs {
		fp, ok := job.Fingerprint()
		if !ok {
			t.Fatalf("job %d not fingerprintable", i)
		}
		if err := st.Put(fp, job, results[i]); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	m, err := BuildManifest("sweep", jobs, results)
	if err != nil {
		t.Fatalf("BuildManifest: %v", err)
	}
	if err := m.VerifyIn(NewStore(dir)); err != nil {
		t.Fatalf("VerifyIn against warm store: %v", err)
	}

	// JSON round trip through LoadManifest.
	path := filepath.Join(t.TempDir(), "manifest.json")
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if loaded.Root != m.Root || len(loaded.Leaves) != len(m.Leaves) {
		t.Error("loaded manifest differs from original")
	}
	if err := loaded.VerifyIn(NewStore(dir)); err != nil {
		t.Errorf("loaded manifest fails VerifyIn: %v", err)
	}

	// Flip one byte of one stored file: verification must fail and name
	// the culprit point.
	victim := filepath.Join(dir, m.Leaves[2].Fingerprint+".json")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("read victim: %v", err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatalf("tamper: %v", err)
	}
	err = m.VerifyIn(NewStore(dir))
	if err == nil {
		t.Fatal("VerifyIn passed against a tampered store")
	}
	if !strings.Contains(err.Error(), "point 2") {
		t.Errorf("tamper error does not name the point: %v", err)
	}

	// A missing file also fails.
	if err := os.Remove(victim); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := m.VerifyIn(NewStore(dir)); err == nil {
		t.Error("VerifyIn passed with a missing store entry")
	}
}

func TestLeafHashMatchesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	job, res := quickJob("swim", core.Baseline64()), stubResult(0)
	fp, _ := job.Fingerprint()
	if err := st.Put(fp, job, res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	_, leaf, err := computeLeaf(job, res)
	if err != nil {
		t.Fatalf("computeLeaf: %v", err)
	}
	want := hex.EncodeToString(leaf[:])
	raw, err := os.ReadFile(filepath.Join(dir, fp+".json"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := hashLeafBytes(raw); got != want {
		t.Errorf("stored file hashes to %s, in-memory leaf is %s", got, want)
	}
}

// manifestsEqual fails t unless got is want, leaf for leaf.
func manifestsEqual(t *testing.T, what string, got, want *Manifest) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Engine.Manifest\n%+v\nwant BuildManifest's\n%+v", what, got, want)
	}
}

// engineManifest builds jobs' manifest on e from results e delivers, and
// fails t unless it equals BuildManifest over the same results.
func engineManifest(t *testing.T, what string, e *Engine, jobs []Job) *Manifest {
	t.Helper()
	results, err := e.ResultAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Manifest("sweep", jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildManifest("sweep", jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	manifestsEqual(t, what, got, want)
	return got
}

// TestEngineManifestMatchesBuildManifest: the manifest an engine builds
// from the leaves it keeps equals BuildManifest's for cold points, warm
// points whose leaves it kept (memo hits), disk hits, points taken from
// an equivalent job's run (gcc's MB_distr runs as IF_distr), points
// evicted from memory, a result the engine never resolved, and
// concurrent sweeps. A Custom job has no manifest.
func TestEngineManifestMatchesBuildManifest(t *testing.T) {
	var jobs []Job
	for _, bench := range []string{"gcc", "swim"} {
		for _, cfg := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
			j := quickJob(bench, cfg)
			j.Opt = Options{Warmup: 200, Instructions: 1000}
			jobs = append(jobs, j)
		}
	}
	dir := t.TempDir()
	e := New(Config{Workers: 2, Store: NewStore(dir)})
	cold := engineManifest(t, "cold", e, jobs)
	if st := e.Stats(); st.Simulated != 5 || st.MemoryHits+st.Shared != 1 {
		t.Fatalf("cold stats %+v, want 5 simulations and gcc's MB_distr from IF_distr's run", st)
	}
	for _, job := range jobs {
		if !e.memory[job.Key()].leaf.ok {
			t.Fatalf("%s under %s: leaf not kept after the first manifest", job.Bench, job.Config.Name)
		}
	}
	warm := engineManifest(t, "warm", e, jobs)
	manifestsEqual(t, "warm against cold", warm, cold)

	// A sweep past the cap evicts its earliest points before its
	// manifest is built: their leaves are computed and not kept.
	// Resolved again, they come back from the store and their leaves are
	// kept anew.
	var calls sync.Map
	bounded := New(Config{Workers: 2, Store: NewMemStore(), Simulate: countingSim(&calls, 0)})
	sweep := tinyJobs(memoryCap + 6)
	engineManifest(t, "past the cap", bounded, sweep)
	var evicted []Job
	for _, job := range sweep {
		if _, ok := bounded.memory[job.Key()]; !ok {
			evicted = append(evicted, job)
		}
	}
	if len(evicted) != 6 {
		t.Fatalf("%d of %d points left memory, want 6", len(evicted), len(sweep))
	}
	engineManifest(t, "evicted", bounded, evicted)
	if st := bounded.Stats(); st.DiskHits != 6 || st.Simulated != int64(len(sweep)) {
		t.Fatalf("evicted stats %+v, want 6 disk hits and no new simulation", st)
	}
	for _, job := range evicted {
		if !bounded.memory[job.Key()].leaf.ok {
			t.Fatalf("%d-instruction job: leaf not kept after it came back", job.Opt.Instructions)
		}
	}

	disk := New(Config{Workers: 2, Store: NewStore(dir)})
	engineManifest(t, "disk hits", disk, jobs)
	if st := disk.Stats(); st.DiskHits != 5 || st.Simulated != 0 {
		t.Fatalf("disk stats %+v, want 5 disk hits", st)
	}
	// A second manifest on the same engine reads the kept leaves.
	engineManifest(t, "disk then memory", disk, jobs)

	// Results the engine never resolved have no memory entry: their
	// leaves are computed and not kept.
	fresh := New(Config{Workers: 1})
	results := make([]Result, len(jobs))
	for i, job := range jobs {
		r, err := Simulate(job)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	got, err := fresh.Manifest("sweep", jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	manifestsEqual(t, "unresolved results", got, cold)
	if len(fresh.memory) != 0 {
		t.Fatalf("a manifest of unresolved results added %d memory entries", len(fresh.memory))
	}

	// Concurrent sweeps over overlapping points on one engine.
	shared := New(Config{Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := jobs[g%2 : len(jobs)-1+g%2]
			for n := 0; n < 3; n++ {
				engineManifest(t, "concurrent", shared, sub)
			}
		}()
	}
	wg.Wait()
	manifestsEqual(t, "after concurrent sweeps", engineManifest(t, "repeat", shared, jobs), cold)

	custom := core.Baseline64()
	custom.Int.Custom = func(core.DomainConfig, core.Options) (core.Scheme, error) { return nil, nil }
	bad := append([]Job{}, jobs[:2]...)
	bad[1].Config = custom
	if _, err := e.Manifest("x", bad, manifestResults(2)); err == nil {
		t.Error("custom-scheme job accepted into an engine manifest")
	}
	if _, err := e.Manifest("x", jobs[:2], manifestResults(3)); err == nil {
		t.Error("length mismatch accepted")
	}
}
