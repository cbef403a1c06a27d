package pipeline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"distiq/internal/core"
	"distiq/internal/isa"
	"distiq/internal/trace"
)

// orderTracer records per-instruction event cycles and validates pipeline
// invariants: stage order per instruction, in-order commit, and
// conservation (everything committed passed through every stage).
type orderTracer struct {
	t             *testing.T
	fetched       map[uint64]int64
	disp          map[uint64]int64
	issued        map[uint64]int64
	wb            map[uint64]int64
	lastCommitSeq int64
	commits       int
}

func newOrderTracer(t *testing.T) *orderTracer {
	return &orderTracer{
		t:       t,
		fetched: map[uint64]int64{}, disp: map[uint64]int64{},
		issued: map[uint64]int64{}, wb: map[uint64]int64{},
		lastCommitSeq: -1,
	}
}

func (o *orderTracer) OnFetch(c int64, in *isa.Inst)    { o.fetched[in.Seq] = c }
func (o *orderTracer) OnDispatch(c int64, in *isa.Inst) { o.disp[in.Seq] = c }
func (o *orderTracer) OnIssue(c int64, in *isa.Inst)    { o.issued[in.Seq] = c }
func (o *orderTracer) OnWriteback(c int64, in *isa.Inst) {
	o.wb[in.Seq] = c
}

func (o *orderTracer) OnCommit(c int64, in *isa.Inst) {
	seq := in.Seq
	if int64(seq) <= o.lastCommitSeq {
		o.t.Errorf("commit out of order: seq %d after %d", seq, o.lastCommitSeq)
	}
	o.lastCommitSeq = int64(seq)
	o.commits++

	f, okF := o.fetched[seq]
	d, okD := o.disp[seq]
	i, okI := o.issued[seq]
	w, okW := o.wb[seq]
	if !okF || !okD || !okI || !okW {
		o.t.Errorf("seq %d committed without full stage history (F %v D %v I %v W %v)",
			seq, okF, okD, okI, okW)
		return
	}
	if !(f <= d && d < i && i < w && w <= c) {
		o.t.Errorf("seq %d stage cycles out of order: F%d D%d I%d W%d C%d", seq, f, d, i, w, c)
	}
	// Bound memory growth in long runs.
	delete(o.fetched, seq)
	delete(o.disp, seq)
	delete(o.issued, seq)
	delete(o.wb, seq)
}

func TestPipelineStageInvariants(t *testing.T) {
	// Every scheme must preserve the fundamental pipeline invariants
	// under a real workload.
	for _, cfg := range []core.Config{
		core.Unbounded(), core.Baseline64(), core.AdaptiveBaseline64(),
		core.IssueFIFOCfg(8, 8, 8, 16), core.LatFIFOCfg(8, 8, 8, 16),
		core.MBDistr(), core.IFDistr(),
	} {
		gen := trace.NewGenerator(trace.MustByName("equake"))
		p, err := New(DefaultConfig(cfg), gen)
		if err != nil {
			t.Fatal(err)
		}
		tr := newOrderTracer(t)
		p.SetTracer(tr)
		p.Run(20_000)
		if tr.commits < 20_000 {
			t.Errorf("%s: only %d commits traced", cfg.Name, tr.commits)
		}
		if t.Failed() {
			t.Fatalf("invariant violations under %s", cfg.Name)
		}
	}
}

// wakeupTracer checks the wakeup contract the CAM queue relies on: at
// the writeback of a result, which broadcasts its tag, the destination
// register turns ready, neither earlier nor later.
type wakeupTracer struct {
	p          *Pipeline
	broadcasts int
	bad        string // first violation
}

func (w *wakeupTracer) OnFetch(int64, *isa.Inst)    {}
func (w *wakeupTracer) OnDispatch(int64, *isa.Inst) {}
func (w *wakeupTracer) OnIssue(int64, *isa.Inst)    {}
func (w *wakeupTracer) OnCommit(int64, *isa.Inst)   {}

func (w *wakeupTracer) OnWriteback(c int64, in *isa.Inst) {
	if !in.HasDest() {
		return
	}
	w.broadcasts++
	if at := w.p.regs[regDomain(in.DestFP)].ReadyAt(in.PDest); at != c && w.bad == "" {
		w.bad = fmt.Sprintf("seq %d (%v) written back at cycle %d, destination ready at %d",
			in.Seq, in.Class, c, at)
	}
}

func TestResultReadyAtItsWriteback(t *testing.T) {
	for _, perfect := range []bool{false, true} {
		for _, iq := range hotPathConfigs() {
			for _, bench := range []string{"swim", "gcc"} {
				cfg := DefaultConfig(iq)
				cfg.PerfectDisambiguation = perfect
				p, err := New(cfg, trace.NewGenerator(trace.MustByName(bench)))
				if err != nil {
					t.Fatal(err)
				}
				w := &wakeupTracer{p: p}
				p.SetTracer(w)
				p.Run(20_000)
				if w.bad != "" || w.broadcasts < 10_000 {
					t.Errorf("%s/%s perfect=%v: %d broadcasts; %s",
						iq.Name, bench, perfect, w.broadcasts, w.bad)
				}
			}
		}
	}
}

func TestTextTracerOutput(t *testing.T) {
	var buf bytes.Buffer
	gen := trace.NewGenerator(trace.MustByName("gzip"))
	p, err := New(DefaultConfig(core.MBDistr()), gen)
	if err != nil {
		t.Fatal(err)
	}
	// The first fetch misses the cold L1I (111 cycles), so the window
	// must start late enough to see events.
	p.SetTracer(&TextTracer{W: &buf, From: 0, To: 400})
	p.Run(500)
	out := buf.String()
	for _, stage := range []string{" F ", " D ", " I ", " C "} {
		if !strings.Contains(out, stage) {
			t.Errorf("trace missing stage %q", stage)
		}
	}
	if strings.Contains(out, "cycle=400 ") || strings.Contains(out, "cycle=401 ") {
		t.Error("tracer emitted events outside its window")
	}
	if !strings.Contains(out, "pc=0x") {
		t.Error("trace lines missing PCs")
	}
}

func TestTextTracerWindow(t *testing.T) {
	tr := &TextTracer{From: 10, To: 20}
	if tr.in(9) || tr.in(20) {
		t.Error("window bounds wrong")
	}
	if !tr.in(10) || !tr.in(19) {
		t.Error("window interior wrong")
	}
	open := &TextTracer{From: 5}
	if !open.in(1 << 40) {
		t.Error("zero To must mean unbounded")
	}
}
