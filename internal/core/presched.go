package core

import (
	"sort"

	"distiq/internal/isa"
	"distiq/internal/power"
)

// preSched is the data-flow prescheduling organization of Michaud and
// Seznec (HPCA 2001), which the paper's related-work section singles out
// as the strongest prior approach ("shown to work better than dependence
// based ones but introduces some more complexity"). It is provided as an
// extension comparator.
//
// A large second-level buffer holds instructions ordered by their
// estimated issue cycle (computed at dispatch by the shared Estimator, the
// same hardware LatFIFO uses); it has no wakeup logic. Instructions are
// promoted into a small first-level conventional CAM queue when they are
// expected to become ready and a free entry exists, so the expensive
// wakeup/select hardware spans only a few entries.
type preSched struct {
	opt Options
	cfg DomainConfig

	level1 *camQueue   // small conventional issue queue
	level2 []*isa.Inst // preschedule buffer, sorted by EstIssue then age
	ev     power.Events

	// lookahead is how many cycles before its estimated issue time an
	// instruction becomes eligible for promotion (covers the promotion
	// pipeline stage).
	lookahead int64
	// promoteWidth bounds promotions per cycle (a register-file-style
	// port limit on the buffer).
	promoteWidth int

	// Promotions counts buffer-to-queue moves (reporting and tests).
	Promotions uint64
}

// newPreSched builds the two-level queue: cfg.Entries is the second-level
// buffer capacity and cfg.Chains (repurposed, documented in PreSchedCfg)
// the first-level CAM size (default 16, Michaud-Seznec's small queue).
func newPreSched(cfg DomainConfig, opt Options) *preSched {
	l1 := cfg.Chains
	if l1 <= 0 {
		l1 = 16
	}
	return &preSched{
		opt: opt,
		cfg: cfg,
		level1: newCAM(DomainConfig{
			Kind: KindCAM, Queues: 1, Entries: l1,
		}, opt),
		level2:       make([]*isa.Inst, 0, cfg.Total()),
		lookahead:    2,
		promoteWidth: 8,
	}
}

func (p *preSched) Name() string   { return "PreSched" }
func (p *preSched) Occupancy() int { return len(p.level2) + p.level1.Occupancy() }
func (p *preSched) Capacity() int  { return p.cfg.Total() + p.level1.Capacity() }

// Events drains the first-level CAM's counters into the scheme-wide view
// so callers see one consistent set.
func (p *preSched) Events() *power.Events {
	p.ev.Add(p.level1.Events())
	p.level1.Events().Reset()
	return &p.ev
}

func (p *preSched) Geometry() power.Geometry {
	g := p.level1.Geometry()
	g.SecondLevel = p.cfg.Total()
	g.FUFanout = p.opt.fanout()
	return g
}

// Dispatch inserts into the second-level buffer in estimated-issue order
// (stable in age for equal estimates), stalling when the buffer is full.
func (p *preSched) Dispatch(env Env, in *isa.Inst) bool {
	if len(p.level2) >= p.cfg.Total() {
		return false
	}
	in.QueueID = 0
	idx := sort.Search(len(p.level2), func(i int) bool {
		return p.level2[i].EstIssue > in.EstIssue
	})
	p.level2 = append(p.level2, nil)
	copy(p.level2[idx+1:], p.level2[idx:])
	p.level2[idx] = in
	p.ev.FIFOWrites++
	return true
}

// Issue promotes due instructions into the first level, then lets the
// small CAM queue select and issue conventionally.
func (p *preSched) Issue(env Env, budget int) int {
	now := env.Cycle()
	promoted := 0
	for len(p.level2) > 0 && promoted < p.promoteWidth &&
		p.level1.Occupancy() < p.level1.Capacity() &&
		p.level2[0].EstIssue <= now+p.lookahead {
		in := p.level2[0]
		copy(p.level2, p.level2[1:])
		p.level2[len(p.level2)-1] = nil
		p.level2 = p.level2[:len(p.level2)-1]
		p.ev.FIFOReads++
		if !p.level1.Dispatch(env, in) {
			panic("core: preSched promotion into full level 1")
		}
		promoted++
		p.Promotions++
	}
	return p.level1.Issue(env, budget)
}

func (p *preSched) OnComplete(env Env, destFP bool, pdest int16) {
	p.level1.OnComplete(env, destFP, pdest)
}

func (p *preSched) OnMispredictResolved() {}
