package engine

import (
	"testing"

	"distiq/internal/core"
)

// keySink keeps BenchmarkJobKey's calls from being optimized away.
var keySink string

// BenchmarkJobKey times the memoization key of a paper machine job
// (MB_distr on swim at a replication seed), the string every engine
// request and every manifest leaf computes.
func BenchmarkJobKey(b *testing.B) {
	j := Job{Bench: "swim", Config: core.MBDistr(), Opt: Options{Warmup: 20_000, Instructions: 100_000}, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = j.Key()
	}
}

// BenchmarkSimulate times one short MB_distr simulation of swim from
// the shared trace cache, the engine's per-job path; its B/op is what a
// simulation allocates once the pools are warm.
func BenchmarkSimulate(b *testing.B) {
	j := Job{Bench: "swim", Config: core.MBDistr(), Opt: Options{Warmup: 1000, Instructions: 4000}}
	if _, err := Simulate(j); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(j); err != nil {
			b.Fatal(err)
		}
	}
}
