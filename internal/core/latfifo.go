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
	opt    Options
	cfg    DomainConfig
	queues [][]*isa.Inst
	ev     power.Events
	occ    int

	heads []*isa.Inst
}

func newLatFIFO(cfg DomainConfig, opt Options) *latFIFO {
	l := &latFIFO{
		opt:    opt,
		cfg:    cfg,
		queues: make([][]*isa.Inst, cfg.Queues),
		heads:  make([]*isa.Inst, 0, cfg.Queues),
	}
	for i := range l.queues {
		l.queues[i] = make([]*isa.Inst, 0, cfg.Entries)
	}
	return l
}

func (l *latFIFO) Name() string          { return "LatFIFO" }
func (l *latFIFO) Occupancy() int        { return l.occ }
func (l *latFIFO) Capacity() int         { return l.cfg.Total() }
func (l *latFIFO) Events() *power.Events { return &l.ev }

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
	for qi := range l.queues {
		q := l.queues[qi]
		if len(q) == 0 {
			if empty < 0 {
				empty = qi
			}
			continue
		}
		if len(q) >= l.cfg.Entries {
			continue
		}
		tailEst := q[len(q)-1].EstIssue
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
	in.QueueID = best
	l.queues[best] = append(l.queues[best], in)
	l.occ++
	l.ev.FIFOWrites++
	return true
}

// Issue mirrors issueFIFO: ready heads issue oldest-first.
func (l *latFIFO) Issue(env Env, budget int) int {
	l.heads = l.heads[:0]
	for qi := range l.queues {
		if len(l.queues[qi]) == 0 {
			continue
		}
		head := l.queues[qi][0]
		l.ev.RegsReadyReads += uint64(head.NumSources())
		if OperandsReady(env, head) {
			l.heads = append(l.heads, head)
		}
	}
	ageSorted(env, l.heads)

	issued := 0
	for _, in := range l.heads {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		qi := in.QueueID
		copy(l.queues[qi], l.queues[qi][1:])
		l.queues[qi][len(l.queues[qi])-1] = nil
		l.queues[qi] = l.queues[qi][:len(l.queues[qi])-1]
		l.occ--
		l.ev.FIFOReads++
		issued++
	}
	return issued
}

func (l *latFIFO) OnComplete(Env, bool, int16) {}

func (l *latFIFO) OnMispredictResolved() {}
