package core

import (
	"distiq/internal/isa"
	"distiq/internal/power"
)

// latFIFO places instructions into FIFO queues by their estimated issue
// time instead of their dependences: an instruction goes to a non-full
// queue whose tail is expected to issue at least one cycle earlier,
// preferring the queue whose tail issues latest (leaving the most room for
// younger instructions); failing that, an empty queue; failing that,
// dispatch stalls. Heads are issued exactly as in IssueFIFO. The paper
// uses this organization for FP queues only (integer queues remain
// IssueFIFO).
type latFIFO struct {
	fifoQueues
	opt Options
	cfg DomainConfig
}

func newLatFIFO(cfg DomainConfig, opt Options) *latFIFO {
	return &latFIFO{fifoQueues: newFIFOQueues(cfg.Queues, cfg.Entries), opt: opt, cfg: cfg}
}

func (l *latFIFO) Name() string  { return "LatFIFO" }
func (l *latFIFO) Capacity() int { return l.cfg.Total() }

func (l *latFIFO) Geometry() power.Geometry {
	return power.Geometry{
		Style:       power.StyleFIFO,
		Queues:      l.cfg.Queues,
		Entries:     l.cfg.Entries,
		TagBits:     8,
		PayloadBits: 80,
		FUFanout:    l.opt.fanout(),
	}
}

// Dispatch places in by estimated issue time (in.EstIssue, filled by the
// shared Estimator at dispatch).
func (l *latFIFO) Dispatch(env Env, in *isa.Inst) bool {
	best, bestTail := -1, int64(-1)
	empty := -1
	for qi := range l.rings {
		r := &l.rings[qi]
		if r.n == 0 {
			if empty < 0 {
				empty = qi
			}
			continue
		}
		if r.n >= l.cfg.Entries {
			continue
		}
		tailEst := r.at(r.n - 1).EstIssue
		if tailEst <= in.EstIssue-1 && tailEst > bestTail {
			best, bestTail = qi, tailEst
		}
	}
	if best < 0 {
		best = empty
	}
	if best < 0 {
		return false
	}
	l.push(env, best, in)
	return true
}

// Issue issues ready heads oldest-first, exactly as issueFIFO does.
func (l *latFIFO) Issue(env Env, budget int) int { return l.issue(env, budget) }

func (l *latFIFO) OnMispredictResolved() {}
