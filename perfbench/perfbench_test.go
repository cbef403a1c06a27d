package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// runIntSweep runs a short int-sweep (its first sweep always completes,
// so the pinned digest applies) against the given pinned digest.
func runIntSweep(t *testing.T, pinned string) *result {
	t.Helper()
	cfg := &runConfig{
		window:  100 * time.Millisecond,
		workDir: t.TempDir(),
		workers: 2,
		pinned:  pinned,
	}
	res, err := runWorkload(context.Background(), &intSweep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A wrong pinned digest must condemn every point: error_rate 1.
func TestWrongPinnedDigestFailsEveryPoint(t *testing.T) {
	res := runIntSweep(t, "0000000000000000000000000000000000000000000000000000000000000000")
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d; want every point failed", res.Correct, res.Attempted, res.Failed)
	}
	if rate := res.report["error_rate"]; rate != 1.0 {
		t.Fatalf("error_rate = %v, want 1", rate)
	}
}

// The committed pin holds at HEAD, and the run prints exactly the
// end-to-end metrics BENCHMARK.json declares.
func TestPinnedDigestHoldsAndMetricsMatch(t *testing.T) {
	pins, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	res := runIntSweep(t, pins["int-sweep"])
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d checks=%v", res.Correct, res.Failed, res.report["checks"])
	}
	doc := benchmarkJSON(t)
	var want []string
	for _, m := range doc.EndToEnd {
		want = append(want, m.Name)
		if got := res.Metrics[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
	if got := sortedKeys(res.Metrics); !equal(got, sorted(want)) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, sorted(want))
	}
}

// BENCHMARK.json's per-layer list and workloads match the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	doc := benchmarkJSON(t)
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if p := perLayer[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, p)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "distiq/internal/core.(*mixBUFF).Issue", "distiq/internal/pipeline.(*Pipeline).Step"}, "core"},
		{[]string{"runtime.memmove", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "distiq/internal/engine.(*Store).PutRaw"}, "store"},
		{[]string{"distiq/internal/isa.(*Inst).ResetMicro", "distiq/internal/trace.(*StreamReader).Next"}, "trace"},
		{[]string{"encoding/json.(*encodeState).marshal", "distiq/internal/serve.(*Server).handleStream"}, "json"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"main.(*tracer).record", "main.run"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func benchmarkJSON(t *testing.T) benchDoc {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func sortedKeys(m metrics) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return sorted(out)
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
