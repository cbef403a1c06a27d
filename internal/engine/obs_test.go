package engine

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distiq/internal/obs"
)

// scrape renders reg and returns the value of the sample line matching
// prefix exactly up to the value field.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := obs.CheckExposition([]byte(b.String())); err != nil {
		t.Fatalf("engine exposition invalid: %v", err)
	}
	return b.String()
}

func sampleValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, exposition)
	return 0
}

// TestEngineMetricsMatchStats pins the acceptance criterion that the
// engine's /metrics counters are definitionally identical to Stats():
// they read its snapshot.
func TestEngineMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	var calls atomic.Int64
	e := New(Config{
		Workers:  2,
		Store:    NewStore(t.TempDir()),
		Simulate: slowStub(0, &calls),
		Obs:      reg,
	})
	jobs := cancelJobs(6)
	jobs = append(jobs, jobs[0]) // duplicate: memory or shared hit
	if _, err := e.ResultAll(jobs); err != nil {
		t.Fatalf("ResultAll: %v", err)
	}
	if _, err := e.Result(jobs[1]); err != nil { // guaranteed memory hit
		t.Fatalf("Result: %v", err)
	}

	st := e.Stats()
	got := scrape(t, reg)
	for series, want := range map[string]int64{
		"distiq_engine_requests_total":                  st.Requested,
		`distiq_engine_jobs_total{source="simulated"}`:  st.Simulated,
		`distiq_engine_jobs_total{source="memory"}`:     st.MemoryHits,
		`distiq_engine_jobs_total{source="disk"}`:       st.DiskHits,
		`distiq_engine_jobs_total{source="shared"}`:     st.Shared,
		`distiq_engine_jobs_total{source="canceled"}`:   st.Canceled,
		"distiq_engine_disk_errors_total":               st.DiskErrors,
		"distiq_engine_queue_depth":                     0,
		"distiq_engine_workers_busy":                    0,
		"distiq_engine_workers":                         2,
		"distiq_engine_simulate_duration_seconds_count": st.Simulated,
	} {
		if v := sampleValue(t, got, series); v != float64(want) {
			t.Errorf("%s = %g, want %d", series, v, want)
		}
	}
	if st.MemoryHits == 0 {
		t.Error("test exercised no memory hit; coverage hole")
	}
}

// TestEngineGaugesTrackOccupancy observes the queue-depth and
// workers-busy gauges while the pool is saturated.
func TestEngineGaugesTrackOccupancy(t *testing.T) {
	reg := obs.NewRegistry()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	e := New(Config{Workers: 2, Obs: reg, Simulate: func(j Job) (Result, error) {
		entered <- struct{}{}
		<-release
		var r Result
		r.Benchmark = j.Bench
		return r, nil
	}})
	jobs := cancelJobs(5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.ResultAll(jobs); err != nil {
			t.Errorf("ResultAll: %v", err)
		}
	}()
	<-entered
	<-entered // both slots occupied, three jobs queued
	waitFor := func(series string, want float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if v := sampleValue(t, scrape(t, reg), series); v == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %g:\n%s", series, want, scrape(t, reg))
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("distiq_engine_workers_busy", 2)
	waitFor("distiq_engine_queue_depth", 3)
	close(release)
	<-done
	waitFor("distiq_engine_workers_busy", 0)
	waitFor("distiq_engine_queue_depth", 0)
}

// TestProgressUnderCancellation pins the mid-cancel contract of
// Config.Progress: every job still produces exactly one progress event
// (canceled points included), Done stays monotonic and reaches Total,
// and the batch error is the context error. Run under -race in CI.
func TestProgressUnderCancellation(t *testing.T) {
	var calls atomic.Int64
	var events []Progress
	e := New(Config{
		Workers:  2,
		Simulate: slowStub(300*time.Microsecond, &calls),
		Progress: func(p Progress) { events = append(events, p) },
	})
	jobs := cancelJobs(40)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, err := e.ResultAllCtx(ctx, jobs)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d (every job emits, canceled included)", len(events), len(jobs))
	}
	var canceled int
	for i, p := range events {
		if p.Done != i+1 {
			t.Fatalf("event %d: Done = %d, want %d", i, p.Done, i+1)
		}
		if p.Source == SourceCanceled {
			canceled++
		}
	}
	if err != nil && canceled == 0 {
		t.Error("cancelled batch reported no canceled progress events")
	}
	if last := events[len(events)-1]; last.Done != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("final progress event %d/%d, want %d/%d", last.Done, last.Total, len(jobs), len(jobs))
	}
	t.Logf("cancelled batch: %d canceled of %d (%s)", canceled, len(jobs),
		map[bool]string{true: "cancelled", false: "completed"}[err != nil])
}
