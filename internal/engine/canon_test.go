package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distiq/internal/core"
	"distiq/internal/pipeline"
	"distiq/internal/trace"
)

// The fmt renderings below are how job identity was first written. The
// appenders in job.go and machine.go must reproduce them byte for byte:
// a fingerprint addresses every warm store entry and every golden
// manifest root.

func fmtDomCanon(d core.DomainConfig) string {
	return fmt.Sprintf("%s,%d,%d,%d,%t,%t",
		d.Kind, d.Queues, d.Entries, d.Chains,
		d.KeepMapOnMispredict, d.FlatSelectPriority)
}

func fmtMachCanon(c pipeline.Config) string {
	return fmt.Sprintf(
		"f%d,d%d,ii%d,if%d,c%d,fq%d,rob%d,dd%d,rp%d|lat:%v|l1i:%d/%d/%d/%d,l1d:%d/%d/%d/%d,l2:%d/%d/%d/%d,mem:%d/%d/%d,p%d|fu:%v|pdis:%t",
		c.FetchWidth, c.DispatchWidth, c.IssueWidthInt, c.IssueWidthFP,
		c.CommitWidth, c.FetchQueue, c.ROBSize, c.DecodeDepth, c.RedirectPenalty,
		c.Latencies,
		c.Hier.L1I.SizeKB, c.Hier.L1I.Assoc, c.Hier.L1I.LineSize, c.Hier.L1I.Latency,
		c.Hier.L1D.SizeKB, c.Hier.L1D.Assoc, c.Hier.L1D.LineSize, c.Hier.L1D.Latency,
		c.Hier.L2.SizeKB, c.Hier.L2.Assoc, c.Hier.L2.LineSize, c.Hier.L2.Latency,
		c.Hier.Mem.FirstChunk, c.Hier.Mem.InterChunk, c.Hier.Mem.ChunkBytes,
		c.Hier.DPorts,
		c.FUCounts,
		c.PerfectDisambiguation)
}

func fmtCanon(j Job, name, fp string) string {
	c := fmt.Sprintf("distiq-v%d|%s|%s|w%d|n%d|int:%s|fp:%s|distr:%t|mach:%s",
		storeVersion, j.Bench, name,
		j.Opt.Warmup, j.Opt.Instructions,
		fmtDomCanon(j.Config.Int), fp,
		j.Config.DistributedFU, fmtMachCanon(j.PipelineConfig()))
	if j.Seed != 0 {
		c += fmt.Sprintf("|seed:%d", j.Seed)
	}
	return c
}

func fmtCanonical(j Job) (string, bool) {
	if j.Config.Int.Custom != nil || j.Config.FP.Custom != nil {
		return "", false
	}
	return fmtCanon(j, j.Config.Name, fmtDomCanon(j.Config.FP)), true
}

func fmtKey(j Job) string {
	if c, ok := fmtCanonical(j); ok {
		return c
	}
	k := fmt.Sprintf("custom|%s|%s|w%d|n%d|mach:%s",
		j.Bench, j.Config.Name, j.Opt.Warmup, j.Opt.Instructions,
		fmtMachCanon(j.PipelineConfig()))
	if j.Seed != 0 {
		k += fmt.Sprintf("|seed:%d", j.Seed)
	}
	return k
}

func fmtFingerprint(j Job) (string, bool) {
	c, ok := fmtCanonical(j)
	if !ok {
		return "", false
	}
	sum := sha256.Sum256([]byte(c))
	return hex.EncodeToString(sum[:]), true
}

func fmtSimIdentity(j Job) (id string, fpIdle, ok bool) {
	if j.Config.Int.Custom != nil || j.Config.FP.Custom != nil {
		return "", false, false
	}
	m, err := j.model()
	if err != nil || j.PipelineConfig().Validate() != nil {
		return "", false, false
	}
	fp := fmtDomCanon(j.Config.FP)
	if !m.HasFPOps() {
		fp, fpIdle = "idle", true
	}
	return "sim|" + fmtCanon(j, "", fp), fpIdle, true
}

// checkOracle fails t unless every identity of j equals its fmt
// rendering.
func checkOracle(t *testing.T, j Job) {
	t.Helper()
	if got, want := j.Key(), fmtKey(j); got != want {
		t.Fatalf("Key:\n got %q\nwant %q", got, want)
	}
	got, gotOK := j.Fingerprint()
	want, wantOK := fmtFingerprint(j)
	if got != want || gotOK != wantOK {
		t.Fatalf("Fingerprint of %q = %s, %t; want %s, %t", fmtKey(j), got, gotOK, want, wantOK)
	}
	id, idle, ok := j.simIdentity()
	wid, widle, wok := fmtSimIdentity(j)
	if id != wid || idle != widle || ok != wok {
		t.Fatalf("simIdentity:\n got %q, %t, %t\nwant %q, %t, %t", id, idle, ok, wid, widle, wok)
	}
	if got, want := j.machineCanon(), fmtMachCanon(j.PipelineConfig()); got != want {
		t.Fatalf("machineCanon:\n got %q\nwant %q", got, want)
	}
}

// randomJob draws a job over every scheme kind (and one past the last),
// zero and negative fields, names with separators and non-ASCII bytes,
// unknown benchmarks, extreme run lengths and seeds, Custom factories
// and machine overrides.
func randomJob(rng *rand.Rand) Job {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	num := func() int { return pick(0, 0, 1, 2, 8, 16, 64, 256, -1, rng.Intn(1<<20), math.MaxInt64) }
	u64 := func() uint64 {
		return []uint64{0, 1, 500, 20_000, 100_000, rng.Uint64(), math.MaxUint64}[rng.Intn(7)]
	}
	dom := func() core.DomainConfig {
		d := core.DomainConfig{
			Kind:                core.Kind(rng.Intn(int(core.KindPreSched) + 2)),
			Queues:              num(),
			Entries:             num(),
			Chains:              num(),
			KeepMapOnMispredict: rng.Intn(2) == 0,
			FlatSelectPriority:  rng.Intn(2) == 0,
		}
		if rng.Intn(20) == 0 {
			d.Custom = func(core.DomainConfig, core.Options) (core.Scheme, error) { return nil, nil }
		}
		return d
	}
	names := []string{"", "IQ_64_64", "MB_distr", "a|b,c:d", "name with spaces", "é\x00\xff"}
	benches := append(trace.AllBenchmarks(), "", "nope")
	j := Job{
		Bench: benches[rng.Intn(len(benches))],
		Config: core.Config{
			Name: names[rng.Intn(len(names))], Int: dom(), FP: dom(),
			DistributedFU: rng.Intn(2) == 0,
		},
		Opt: Options{Warmup: u64(), Instructions: u64()},
	}
	if rng.Intn(3) == 0 {
		j.Seed = u64()
	}
	if rng.Intn(2) == 0 {
		j.Machine = &Machine{
			FetchWidth: num(), DispatchWidth: num(), IssueWidthInt: num(), IssueWidthFP: num(),
			CommitWidth: num(), FetchQueue: num(), ROBSize: pick(0, 64, 128, 256, 96),
			IntALUs: num(), IntMuls: num(), FPAdders: num(), FPMuls: num(),
			L1DLatency: num(), L2Latency: num(), MemLatency: num(),
			PerfectDisambiguation: rng.Intn(2) == 0,
		}
	}
	return j
}

// TestIdentityMatchesFmtOracle: Key, Fingerprint, simIdentity and the
// machine segment equal their fmt renderings over the
// FuzzMachineFingerprint seed corpus, the paper's organizations on every
// benchmark, and random jobs.
func TestIdentityMatchesFmtOracle(t *testing.T) {
	for _, pair := range machineFingerprintSeeds {
		for _, s := range pair {
			m := s.machine()
			j := quickJob("swim", core.MBDistr())
			j.Machine = &m
			checkOracle(t, j)
		}
	}
	for _, bench := range trace.AllBenchmarks() {
		for _, cfg := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
			checkOracle(t, quickJob(bench, cfg))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		checkOracle(t, randomJob(rng))
	}
}
