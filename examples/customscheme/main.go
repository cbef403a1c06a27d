// customscheme demonstrates the library's extension point: a user-defined
// issue-queue organization plugged into the same pipeline and workloads as
// the paper's schemes.
//
// The custom organization below ("RoundRobinFIFO") uses the same FIFO
// hardware as IssueFIFO but ignores dependences when placing instructions,
// assigning queues round-robin. Comparing it against real IssueFIFO
// quantifies how much of Palacharla's design is the *dependence-based
// placement* rather than the FIFOs themselves — an ablation the paper's
// related-work discussion implies but never plots.
package main

import (
	"fmt"
	"log"

	"distiq"
	"distiq/internal/isa"
	"distiq/internal/power"
)

// rrFIFO is a bank of FIFO queues with round-robin placement. Only heads
// may issue, as in IssueFIFO.
type rrFIFO struct {
	queues  [][]*isa.Inst
	entries int
	next    int
	occ     int
	ev      power.Events
	heads   []*isa.Inst
}

func newRRFIFO(cfg distiq.DomainConfig, opt distiq.SchemeOptions) (distiq.Scheme, error) {
	f := &rrFIFO{entries: cfg.Entries, queues: make([][]*isa.Inst, cfg.Queues)}
	for i := range f.queues {
		f.queues[i] = make([]*isa.Inst, 0, cfg.Entries)
	}
	return f, nil
}

func (f *rrFIFO) Name() string                       { return "RoundRobinFIFO" }
func (f *rrFIFO) Occupancy() int                     { return f.occ }
func (f *rrFIFO) Capacity() int                      { return len(f.queues) * f.entries }
func (f *rrFIFO) Events() *power.Events              { return &f.ev }
func (f *rrFIFO) OnComplete(distiq.Env, bool, int16) {}
func (f *rrFIFO) OnMispredictResolved()              {}

func (f *rrFIFO) Geometry() power.Geometry {
	return power.Geometry{
		Style: power.StyleFIFO, Queues: len(f.queues), Entries: f.entries,
		TagBits: 8, PayloadBits: 80,
	}
}

func (f *rrFIFO) Dispatch(env distiq.Env, in *isa.Inst) bool {
	for tries := 0; tries < len(f.queues); tries++ {
		qi := (f.next + tries) % len(f.queues)
		if len(f.queues[qi]) < f.entries {
			in.QueueID = qi
			f.queues[qi] = append(f.queues[qi], in)
			f.next = (qi + 1) % len(f.queues)
			f.occ++
			f.ev.FIFOWrites++
			return true
		}
	}
	return false
}

func (f *rrFIFO) Issue(env distiq.Env, budget int) int {
	f.heads = f.heads[:0]
	for qi := range f.queues {
		if len(f.queues[qi]) > 0 {
			f.heads = append(f.heads, f.queues[qi][0])
		}
	}
	issued := 0
	for _, in := range f.heads {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		qi := in.QueueID
		copy(f.queues[qi], f.queues[qi][1:])
		f.queues[qi] = f.queues[qi][:len(f.queues[qi])-1]
		f.occ--
		f.ev.FIFOReads++
		issued++
	}
	return issued
}

func main() {
	opt := distiq.Options{Warmup: 10_000, Instructions: 60_000}

	custom := distiq.Config{
		Name: "RoundRobinFIFO_8x8_8x16",
		Int:  distiq.DomainConfig{Queues: 8, Entries: 8, Custom: newRRFIFO},
		FP:   distiq.DomainConfig{Queues: 8, Entries: 16, Custom: newRRFIFO},
	}
	configs := []distiq.Config{
		distiq.Unbounded(),
		distiq.IssueFIFOCfg(8, 8, 8, 16),
		custom,
	}

	benchmarks := []string{"gzip", "vortex", "swim", "lucas"}
	fmt.Printf("%-10s", "benchmark")
	for _, c := range configs {
		fmt.Printf(" %26s", c.Name)
	}
	fmt.Println()
	for _, b := range benchmarks {
		fmt.Printf("%-10s", b)
		for _, cfg := range configs {
			res, err := distiq.Run(b, cfg, opt)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %21.3f IPC", res.IPC())
		}
		fmt.Println()
	}
	fmt.Println("\nRound-robin placement breaks the only-heads-issue invariant that")
	fmt.Println("dependence-based placement exploits: dependent instructions land")
	fmt.Println("behind unrelated ones and stall whole queues. The gap versus")
	fmt.Println("IssueFIFO is the value of Palacharla's placement heuristic.")
}
