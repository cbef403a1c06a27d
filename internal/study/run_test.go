package study

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distiq/internal/client"
	"distiq/internal/scenario"
	"distiq/internal/serve"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.txt from the current simulator")

// quickLengths mirror sim.QuickOptions: enough cycles for schemes to
// diverge, fast enough for the golden gate.
const (
	quickWarmup = 5_000
	quickInsts  = 20_000
)

func ablationSpec() *Spec {
	pd := true
	return New("scheme-ablation").Ablation().
		WithBenchmarks("swim", "gzip").
		WithVariants(
			Variant{Name: "small-rob", ROB: 128},
			Variant{Name: "mb-distr", Scheme: "MB_distr"},
			Variant{Name: "oracle-disambig", PerfectDisambiguation: &pd},
		).
		WithLengths(quickWarmup, quickInsts)
}

func replicationSpec() *Spec {
	return New("rep").Replication().
		WithBenchmarks("swim").
		WithVariants(Variant{Name: "mb-distr", Scheme: "MB_distr"}).
		WithReplicates(3).
		WithLengths(quickWarmup, quickInsts)
}

// checkGolden diffs got against the named fixture, rewriting it under
// -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/study -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- golden ---\n%s--- current ---\n%s", path, want, got)
	}
}

// TestGoldenAblationTable pins the ablation variant × metric table and
// the replication mean/sd/CI table byte-for-byte in every emit format.
func TestGoldenAblationTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *Spec
	}{
		{"ablation", ablationSpec()},
		{"replication", replicationSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), client.NewLocal(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range scenario.Formats {
				var buf bytes.Buffer
				if err := res.Emit(&buf, format); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, tc.name+"."+format+".txt", buf.String())
			}
		})
	}
}

// TestAblationWarmRerun reruns the same study on one warm client: the
// second pass must simulate nothing and emit byte-identical tables.
func TestAblationWarmRerun(t *testing.T) {
	cl := client.NewLocal()
	cold, err := Run(context.Background(), cl, ablationSpec())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Counts.Simulated == 0 {
		t.Fatal("cold run simulated nothing")
	}
	warm, err := Run(context.Background(), cl, ablationSpec())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counts.Simulated != 0 {
		t.Fatalf("warm rerun simulated %d points, want 0", warm.Counts.Simulated)
	}
	for _, format := range scenario.Formats {
		var a, b bytes.Buffer
		if err := cold.Emit(&a, format); err != nil {
			t.Fatal(err)
		}
		if err := warm.Emit(&b, format); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s output differs between cold and warm runs", format)
		}
	}
}

// TestReplicationStableAcrossParallelism runs the same replication study
// serially and wide: mean/sd/CI columns must match byte-for-byte, and
// distinct seeds must actually spread the observations (nonzero sd).
func TestReplicationStableAcrossParallelism(t *testing.T) {
	spec := replicationSpec()
	serial, err := Run(context.Background(), client.NewLocal(client.WithParallel(1)), spec)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(context.Background(), client.NewLocal(client.WithParallel(8)), spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != wide.CSV() {
		t.Fatalf("replication table depends on parallelism:\n%s\nvs\n%s", serial.CSV(), wide.CSV())
	}
	sawSpread := false
	sd := colIndex(t, serial.Columns, "ipc_sd")
	for _, row := range serial.Rows {
		if row[sd] != "0.0000" {
			sawSpread = true
		}
	}
	if !sawSpread {
		t.Fatalf("replication seeds produced identical IPC everywhere:\n%s", serial.CSV())
	}
	n := colIndex(t, serial.Columns, "n")
	for _, row := range serial.Rows {
		if row[n] != "3" {
			t.Fatalf("row n = %s, want 3", row[n])
		}
	}
}

// TestManifestParityLocalRemote runs the ablation study on a Local
// client and on a Remote client over an in-process distiqd: both
// manifests cover every planned point and share one Merkle root, since
// the manifest identifies the experiment, not the substrate.
func TestManifestParityLocalRemote(t *testing.T) {
	spec := ablationSpec()
	planned, err := spec.PlannedPoints()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Parallel: 2}))
	defer ts.Close()
	var roots []string
	for _, cl := range []client.Client{client.NewLocal(client.WithParallel(2)), client.NewRemote(ts.URL)} {
		res, err := Run(context.Background(), cl, spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := res.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("%T manifest does not verify: %v", cl, err)
		}
		if m.Points != planned {
			t.Fatalf("%T manifest covers %d points, want %d", cl, m.Points, planned)
		}
		roots = append(roots, m.Root)
	}
	if roots[0] != roots[1] {
		t.Fatalf("manifest roots differ: local %s, remote %s", roots[0], roots[1])
	}
}

// TestEmitFormats pins the emit funnel's error path and JSON numbers.
func TestEmitFormats(t *testing.T) {
	res := &Result{Name: "x", Mode: ModeAblation, Columns: []string{"a"}, Rows: [][]string{{"1"}}, numeric: []bool{true}}
	if err := res.Emit(&bytes.Buffer{}, "xml"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("unknown format not rejected: %v", err)
	}
	for _, f := range scenario.Formats {
		if err := res.Emit(&bytes.Buffer{}, f); err != nil {
			t.Fatalf("emit %s: %v", f, err)
		}
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"a": 1`)) {
		t.Fatalf("numeric cell not emitted as JSON number:\n%s", data)
	}
}

func colIndex(t *testing.T, cols []string, name string) int {
	t.Helper()
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, cols)
	return -1
}
