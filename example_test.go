package distiq_test

import (
	"context"
	"fmt"
	"log"

	"distiq"
)

// A LocalClient resolves one job on the in-process engine. Grids go
// through Sweep, the one method of the Client interface, which a
// RemoteClient pointed at a distiqd serves the same way.
func ExampleNewLocalClient() {
	cl := distiq.NewLocalClient(distiq.WithParallel(2))
	res, err := cl.Run(context.Background(), distiq.Job{
		Bench:  "swim",
		Config: distiq.MBDistr(),
		Opt:    distiq.QuickOptions(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s under %s: resolved %v instructions through the Client layer\n",
		res.Benchmark, res.Config, res.Insts > 0)
	// Output:
	// swim under MB_distr: resolved true instructions through the Client layer
}

// Sweep a scenario grid through the Client API, streaming results in
// deterministic grid order.
func ExampleLocalClient_Sweep() {
	grid, err := distiq.NewScenario("rob").
		WithBenchmarks("swim").
		WithNamed("MB_distr").
		WithROB(128, 256).
		WithLengths(1_000, 5_000).
		Expand()
	if err != nil {
		log.Fatal(err)
	}
	cl := distiq.NewLocalClient(distiq.WithParallel(2))
	stream := cl.Sweep(context.Background(), grid)
	for stream.Next() {
		u := stream.Update()
		fmt.Printf("point %d: %s rob=%s\n", u.Index, u.Point.Bench, u.Point.Values[4])
	}
	if err := stream.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// point 0: swim rob=128
	// point 1: swim rob=256
}

// Simulate one benchmark under the paper's proposed configuration and
// inspect performance and issue-logic energy.
func ExampleRun() {
	res, err := distiq.Run("swim", distiq.MBDistr(), distiq.QuickOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s under %s: IPC and energy are deterministic across runs\n",
		res.Benchmark, res.Config)
	// Output:
	// swim under MB_distr: IPC and energy are deterministic across runs
}

// Regenerate a figure from the paper's evaluation. Sessions memoize runs,
// so generating several figures shares their common baselines.
func ExampleFigure() {
	s := distiq.NewSession(distiq.Options{Warmup: 1_000, Instructions: 5_000})
	tab, err := distiq.Figure(12, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tab.Title)
	fmt.Println(tab.Rows[0].Label) // the baseline row
	// Output:
	// Figure 12: normalized issue-queue power
	// IQ_64_64
}

// Compare two configurations on one benchmark — the shape of every
// experiment in the paper.
func ExampleConfig() {
	opt := distiq.QuickOptions()
	base, err := distiq.Run("lucas", distiq.Baseline64(), opt)
	if err != nil {
		log.Fatal(err)
	}
	prop, err := distiq.Run("lucas", distiq.MBDistr(), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MB_distr uses less issue-queue energy: %v\n", prop.IQEnergy < base.IQEnergy)
	// Output:
	// MB_distr uses less issue-queue energy: true
}

// Sweep a custom configuration space using the named constructors.
func ExampleMixBUFFCfg() {
	cfg := distiq.MixBUFFCfg(8, 8, 10, 16, 4)
	fmt.Println(cfg.Name, cfg.FP.Chains)
	// Output:
	// MixBUFF_8x8_10x16 4
}
