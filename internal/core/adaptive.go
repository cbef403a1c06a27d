package core

import (
	"distiq/internal/isa"
	"distiq/internal/power"
)

// adaptiveCAM extends the conventional CAM queue with the dynamic resizing
// mechanism of Folegnani and González (ISCA 2001), which the paper builds
// its power-optimized baseline on: the queue is divided into portions and
// the effective size shrinks when the youngest portion contributes few
// issued instructions, saving wakeup and selection energy at negligible
// IPC cost.
//
// The implementation monitors, over a fixed cycle interval, how many
// instructions issued from the youngest active portion. At the end of the
// interval the effective limit shrinks by one portion if that contribution
// is below a threshold fraction of issue bandwidth, and grows by one
// portion whenever dispatch stalled against the limit. This reproduces the
// published behaviour at the fidelity the energy comparison needs: the
// effective queue tracks the ILP the program actually exploits.
type adaptiveCAM struct {
	cam *camQueue

	portion   int   // resize granularity in entries
	limit     int   // current effective capacity
	interval  int64 // decision period in cycles
	nextCheck int64

	youngIssued uint64 // issued from the youngest active portion
	limitStalls uint64 // dispatch rejections caused by the limit
	threshold   uint64 // youngIssued below this shrinks the queue

	// limitSum/ticks track the average effective size so the energy
	// model can account for gated-off banks (tag lines are only driven
	// across the enabled portion of the queue).
	limitSum, ticks uint64

	// young is scratch for the youngest portion's entries during Issue,
	// allocated once at the queue's capacity.
	young []*isa.Inst

	// Grows and Shrinks count resize decisions (for reports and tests).
	Grows, Shrinks uint64
}

func newAdaptiveCAM(cfg DomainConfig, opt Options) *adaptiveCAM {
	a := &adaptiveCAM{
		cam:      newCAM(cfg, opt),
		portion:  8,
		limit:    cfg.Total(),
		interval: 512,
		young:    make([]*isa.Inst, 0, cfg.Total()),
	}
	// Shrink when the youngest portion contributes fewer than ~2% of
	// the interval's cycles worth of issues.
	a.threshold = uint64(a.interval / 50)
	return a
}

func (a *adaptiveCAM) Name() string          { return "AdaptiveCAM" }
func (a *adaptiveCAM) Occupancy() int        { return a.cam.Occupancy() }
func (a *adaptiveCAM) Capacity() int         { return a.cam.Capacity() }
func (a *adaptiveCAM) Events() *power.Events { return a.cam.Events() }

// Geometry reports the *average effective* queue size: disabled portions'
// banks are power-gated, so the wakeup tag drive and the payload RAM only
// span the enabled entries. Called at reporting time, after simulation.
func (a *adaptiveCAM) Geometry() power.Geometry {
	g := a.cam.Geometry()
	if a.ticks > 0 {
		avg := int(a.limitSum / a.ticks)
		if avg < a.portion {
			avg = a.portion
		}
		g.Entries = avg
		g.Banks = (avg + a.portion - 1) / a.portion
	}
	return g
}

// Limit returns the current effective queue size.
func (a *adaptiveCAM) Limit() int { return a.limit }

func (a *adaptiveCAM) Dispatch(env Env, in *isa.Inst) bool {
	if a.cam.Occupancy() >= a.limit {
		a.limitStalls++
		return false
	}
	return a.cam.Dispatch(env, in)
}

func (a *adaptiveCAM) Issue(env Env, budget int) int {
	a.resize(env)
	a.limitSum += uint64(a.limit)
	a.ticks++
	// Youngest-portion accounting: the index array keeps dispatch
	// order, so the youngest portion of the *effective window* is the
	// set of entries at positions [limit-portion, limit). If occupancy
	// never reaches into that range, the portion contributes nothing
	// and the queue can shrink — the Folegnani-González criterion.
	a.young = a.young[:0]
	if youngStart := a.limit - a.portion; youngStart < len(a.cam.order) {
		for _, s := range a.cam.order[youngStart:] {
			a.young = append(a.young, a.cam.slots[s].in)
		}
	}
	n := a.cam.Issue(env, budget)
	// TryIssue marks what it issues, so the copied entries that issued
	// are the ones now flagged.
	for _, in := range a.young {
		if in.Issued {
			a.youngIssued++
		}
	}
	return n
}

// resize applies one grow/shrink decision per interval.
func (a *adaptiveCAM) resize(env Env) {
	now := env.Cycle()
	if now < a.nextCheck {
		return
	}
	a.nextCheck = now + a.interval
	switch {
	case a.limitStalls > 0 && a.limit < a.cam.Capacity():
		a.limit += a.portion
		a.Grows++
	case a.youngIssued < a.threshold && a.limit > a.portion:
		a.limit -= a.portion
		a.Shrinks++
	}
	a.youngIssued = 0
	a.limitStalls = 0
}

func (a *adaptiveCAM) OnComplete(env Env, destFP bool, pdest int16) {
	a.cam.OnComplete(env, destFP, pdest)
}
func (a *adaptiveCAM) OnMispredictResolved() {}
