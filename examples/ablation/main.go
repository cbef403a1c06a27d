// ablation reproduces the paper's headline comparison as a study
// instead of a hand-rolled sweep: a baseline conventional 64-entry CAM
// issue queue against the distributed MixBUFF scheme, a halved window,
// and an oracle memory-dependence predictor. The study layer expands
// each variant into a single-configuration scenario, resolves every
// point through the content-addressed engine, and emits a deterministic
// variant x metric table with IPC and energy deltas against the
// baseline — byte-identical across reruns and across Local and Remote
// clients.
package main

import (
	"context"
	"fmt"
	"log"

	"distiq"
)

func main() {
	oracle := true
	spec := distiq.NewStudy("scheme-ablation").
		Ablation().
		WithBenchmarks("swim", "applu").
		WithVariants(
			distiq.StudyVariant{Name: "mb-distr", Scheme: "MB_distr"},
			distiq.StudyVariant{Name: "small-rob", ROB: 128},
			distiq.StudyVariant{Name: "oracle-disambig", PerfectDisambiguation: &oracle},
		)
	planned, err := spec.PlannedPoints()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("study %q: %d planned points\n\n", spec.Name, planned)

	cl := distiq.NewLocalClient(distiq.WithParallel(0)) // 0 = GOMAXPROCS
	res, err := distiq.RunStudy(context.Background(), cl, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Markdown())
	fmt.Printf("\nresolved: %d simulated, %d memory hits, %d deduplicated\n",
		res.Counts.Simulated, res.Counts.MemoryHits, res.Counts.Shared)

	// The same study on the client's warm caches: zero new simulations,
	// and the emitted table is byte-identical.
	again, err := distiq.RunStudy(context.Background(), cl, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm rerun: %d simulated, table identical: %v\n",
		again.Counts.Simulated, again.CSV() == res.CSV())
}
