package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"distiq/internal/client"
	"distiq/internal/engine"
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

// TestGoldenManifest pins the manifest JSON shape and the exact Merkle
// root of the canonical 4-point grid. A diff here means either the
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
	got, err := json.MarshalIndent(m, "", " ")
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
			got, err := json.MarshalIndent(m, "", " ")
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
			if wj, _ := json.MarshalIndent(wm, "", " "); !bytes.Equal(append(wj, '\n'), want) {
				t.Fatalf("warm manifest through %s drifted from golden", name)
			}
		})
	}
}
