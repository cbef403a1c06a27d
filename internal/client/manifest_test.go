package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/scenario"
	"distiq/internal/serve"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/manifest.json from the current simulator")

// TestManifestParityLocalRemote: a Local sweep and a Remote sweep of the
// same grid produce byte-identical Merkle manifests — the manifest
// identifies the experiment, not the substrate that ran it.
func TestManifestParityLocalRemote(t *testing.T) {
	local := client.NewLocal(client.WithParallel(4))
	lst := local.Sweep(context.Background(), testGrid(t))
	if _, err := lst.ResultSet(); err != nil {
		t.Fatal(err)
	}
	lm := lst.Manifest()
	if lm == nil {
		t.Fatal("local sweep has no manifest")
	}
	if err := lm.Check(); err != nil {
		t.Fatalf("local manifest does not verify: %v", err)
	}

	ts := httptest.NewServer(serve.New(serve.Config{Parallel: 4}))
	defer ts.Close()
	rst := client.NewRemote(ts.URL).Sweep(context.Background(), testGrid(t))
	if _, err := rst.ResultSet(); err != nil {
		t.Fatal(err)
	}
	rm := rst.Manifest()
	if rm == nil {
		t.Fatal("remote sweep has no manifest")
	}

	lj, err := json.Marshal(lm)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(rm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Fatalf("manifests differ between substrates:\n--- local ---\n%s\n--- remote ---\n%s", lj, rj)
	}
}

// TestGoldenManifest pins the manifest file's bytes (Manifest.JSON, what
// iqsweep -manifest writes) and the exact Merkle root of the canonical
// 4-point grid. A diff here means either the
// simulator's results changed (bump the store version!) or the manifest
// layout changed (a breaking format change for saved manifests) — both
// must be deliberate; rewrite with -update-golden.
func TestGoldenManifest(t *testing.T) {
	st := client.NewLocal(client.WithParallel(2)).Sweep(context.Background(), testGrid(t))
	if _, err := st.ResultSet(); err != nil {
		t.Fatal(err)
	}
	m := st.Manifest()
	if m == nil {
		t.Fatal("sweep has no manifest")
	}
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden", "manifest.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/client -run TestGoldenManifest -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenManifestAllBackends extends the golden gate across every
// result-store backend: a cold sweep persisted through each backend must
// produce the byte-identical pinned manifest (same Merkle root whatever
// holds the entries), the manifest must verify against the backend's
// stored bytes, and a warm rerun over the same backing state must
// perform zero simulations while emitting identical result bytes.
func TestGoldenManifestAllBackends(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "manifest.json"))
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/client -run TestGoldenManifest -update-golden): %v", err)
	}

	// Each backend yields a cold store over fresh backing state and a
	// warm handle over the SAME backing state, mirroring the engine
	// conformance factories.
	backends := map[string]func(t *testing.T) (cold engine.ResultStore, warm func() engine.ResultStore){
		"fs": func(t *testing.T) (engine.ResultStore, func() engine.ResultStore) {
			dir := t.TempDir()
			return engine.NewStore(dir), func() engine.ResultStore { return engine.NewStore(dir) }
		},
		"mem": func(t *testing.T) (engine.ResultStore, func() engine.ResultStore) {
			s := engine.NewMemStore()
			return s, func() engine.ResultStore { return s }
		},
	}

	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			cold, warm := mk(t)
			cl := client.NewLocal(client.WithParallel(2), client.WithStore(cold))
			st := cl.Sweep(context.Background(), testGrid(t))
			coldRes, err := st.ResultSet()
			if err != nil {
				t.Fatal(err)
			}
			m := st.Manifest()
			if m == nil {
				t.Fatal("sweep has no manifest")
			}
			got, err := m.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if !bytes.Equal(got, want) {
				t.Fatalf("manifest through %s backend drifted from golden:\n--- got ---\n%s", name, got)
			}
			// The manifest must verify against the bytes this backend
			// actually holds.
			if err := m.VerifyIn(cold); err != nil {
				t.Fatalf("manifest does not verify in the %s store: %v", name, err)
			}

			// Warm rerun over the same backing state: zero simulations,
			// identical result bytes.
			wst := warm()
			wcl := client.NewLocal(client.WithParallel(2), client.WithStore(wst))
			ws := wcl.Sweep(context.Background(), testGrid(t))
			warmRes, err := ws.ResultSet()
			if err != nil {
				t.Fatal(err)
			}
			if stats := wcl.Stats(); stats.Simulated != 0 {
				t.Fatalf("warm rerun through %s simulated %d points, want 0 (stats %+v)", name, stats.Simulated, stats)
			}
			if coldRes.CSV() != warmRes.CSV() {
				t.Fatalf("warm rerun through %s emitted different bytes", name)
			}
			wm := ws.Manifest()
			if wm == nil {
				t.Fatal("warm sweep has no manifest")
			}
			if wj, _ := wm.JSON(); !bytes.Equal(append(wj, '\n'), want) {
				t.Fatalf("warm manifest through %s drifted from golden", name)
			}
		})
	}
}

// TestLocalSweepManifestFailure: a sweep whose points all resolve but
// whose manifest cannot be built (a result the store codec cannot
// encode) delivers every point, then fails with the manifest error, and
// has no manifest.
func TestLocalSweepManifestFailure(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, Simulate: func(j engine.Job) (engine.Result, error) {
		var r engine.Result
		r.IQEnergy = math.Inf(1)
		return r, nil
	}})
	grid := testGrid(t)
	st := client.NewLocalOn(eng).Sweep(context.Background(), grid)
	n := 0
	for st.Next() {
		n++
	}
	if n != grid.Size() {
		t.Fatalf("stream delivered %d of %d points", n, grid.Size())
	}
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "client: sweep manifest: ") ||
		!strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("stream err = %v, want the manifest's encode error", err)
	}
	if m := st.Manifest(); m != nil {
		t.Fatalf("failed sweep has manifest %s", m.Root)
	}
}

// TestWarmSweepManifestRendersNoKey: a warm Local sweep, streamed whole
// with its manifest, renders no job key. The engine resolves each point
// by its digest, and the manifest takes the digests the sweep resolved
// and the leaves the engine kept, so a warm point allocates at most
// warmPointAllocs times: its job's machine override, its leaf's two hex
// strings and its share of the Merkle tree's inner nodes. Rendering the
// key once to resolve a point and once more for its manifest leaf, as a
// sweep once did, costs two more. The cost per point is the difference
// between a 4-point and an 8-point sweep, so the sweep's fixed cost
// cancels.
func TestWarmSweepManifestRendersNoKey(t *testing.T) {
	const warmPointAllocs = 6
	cl := client.NewLocal(client.WithParallel(2))
	allocs := func(robs ...int) float64 {
		grid, err := scenario.New("warm").WithBenchmarks("swim").WithNamed("MB_distr").
			WithROB(robs...).WithPerfectDisambiguation(false, true).WithLengths(1000, 2000).Expand()
		if err != nil {
			t.Fatal(err)
		}
		sweep := func() {
			st := cl.Sweep(context.Background(), grid)
			for st.Next() {
			}
			if err := st.Err(); err != nil || st.Manifest() == nil {
				t.Fatalf("sweep failed: %v", err)
			}
		}
		sweep() // cold
		return testing.AllocsPerRun(20, sweep)
	}
	small, large := allocs(128, 256), allocs(64, 128, 256, 512)
	if per := (large - small) / 4; per > warmPointAllocs {
		t.Errorf("a warm point allocates %.2f times (%.0f for 4 points, %.0f for 8), want at most %d",
			per, small, large, warmPointAllocs)
	}
}
