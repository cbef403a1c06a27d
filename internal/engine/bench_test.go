package engine

import (
	"testing"

	"distiq/internal/core"
)

// keySink and digestSink keep BenchmarkJobKey's calls from being
// optimized away.
var (
	keySink    string
	digestSink Digest
)

// BenchmarkJobKey times the identity of a paper machine job (MB_distr on
// swim at a replication seed): its key string, and its digest, which
// every engine request computes.
func BenchmarkJobKey(b *testing.B) {
	j := Job{Bench: "swim", Config: core.MBDistr(), Opt: Options{Warmup: 20_000, Instructions: 100_000}, Seed: 7}
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink = j.Key()
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			digestSink = j.digest()
		}
	})
}

// BenchmarkSimulate times one short MB_distr simulation of swim, the
// engine's per-job path, generator included; its B/op is what a
// simulation allocates once the pools are warm: about 48 KB in 145
// allocations, the static program and its walk among them.
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
