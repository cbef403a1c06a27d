// Quickstart: simulate one benchmark under the paper's proposed MB_distr
// issue logic and the conventional IQ_64_64 baseline, and compare
// performance and issue-logic energy — the paper's headline trade-off.
//
// Jobs run on a LocalClient, the in-process implementation of the
// Client API, which shards work across the concurrent engine (its
// remote counterpart sweeps grids on a distiqd service — see
// examples/remotesweep).
package main

import (
	"context"
	"fmt"
	"log"

	"distiq"
)

func main() {
	ctx := context.Background()
	cl := distiq.NewLocalClient() // GOMAXPROCS workers, in-memory caching
	opt := distiq.Options{Warmup: 20_000, Instructions: 100_000}

	baseline, err := cl.Run(ctx, distiq.Job{Bench: "swim", Config: distiq.Baseline64(), Opt: opt})
	if err != nil {
		log.Fatal(err)
	}
	proposed, err := cl.Run(ctx, distiq.Job{Bench: "swim", Config: distiq.MBDistr(), Opt: opt})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("swim (SPECFP stand-in), 100k instructions")
	fmt.Printf("%-22s %10s %14s %16s\n", "configuration", "IPC", "IQ energy", "pJ/instruction")
	for _, r := range []distiq.Result{baseline, proposed} {
		fmt.Printf("%-22s %10.3f %11.1f nJ %16.2f\n",
			r.Config, r.IPC(), r.IQEnergy/1000, r.IQEnergy/float64(r.Insts))
	}
	fmt.Printf("\nMB_distr keeps %.1f%% of the baseline IPC while using %.1f%% of its issue-logic energy.\n",
		100*proposed.IPC()/baseline.IPC(), 100*proposed.IQEnergy/baseline.IQEnergy)
}
