package engine

import (
	"distiq/internal/obs"
)

// instrument registers the engine's observability surface on reg. The
// resolution counters are function-backed reads of Stats(), so a scrape
// of /metrics and a read of /v1/stats can never disagree; the queue and
// occupancy gauges read the live atomics the hot path already maintains.
func (e *Engine) instrument(reg *obs.Registry) {
	stat := func(pick func(Stats) int64) func() float64 {
		return func() float64 { return float64(pick(e.Stats())) }
	}
	reg.CounterFunc("distiq_engine_requests_total",
		"Jobs requested from the engine, batch entries included.",
		stat(func(s Stats) int64 { return s.Requested }))
	for _, c := range []struct {
		source Source
		pick   func(Stats) int64
	}{
		{SourceSimulated, func(s Stats) int64 { return s.Simulated }},
		{SourceMemory, func(s Stats) int64 { return s.MemoryHits }},
		{SourceDisk, func(s Stats) int64 { return s.DiskHits }},
		{SourceShared, func(s Stats) int64 { return s.Shared }},
		{SourceCanceled, func(s Stats) int64 { return s.Canceled }},
	} {
		reg.CounterFunc("distiq_engine_jobs_total",
			"Resolved jobs by resolution source.",
			stat(c.pick), obs.L("source", string(c.source)))
	}
	reg.CounterFunc("distiq_engine_disk_errors_total",
		"Failed best-effort persistent-store writes.",
		stat(func(s Stats) int64 { return s.DiskErrors }))
	reg.GaugeFunc("distiq_engine_queue_depth",
		"Jobs waiting for a worker slot.",
		func() float64 { return float64(e.queued.Load()) })
	reg.GaugeFunc("distiq_engine_workers_busy",
		"Worker slots currently occupied.",
		func() float64 { return float64(e.running.Load()) })
	reg.GaugeFunc("distiq_engine_workers",
		"Worker-pool bound.",
		func() float64 { return float64(e.Workers()) })
	e.simDur = reg.Histogram("distiq_engine_simulate_duration_seconds",
		"Wall time of one simulator run.",
		obs.ExpBuckets(0.001, 4, 10))
}
