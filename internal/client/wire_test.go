package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/metrics"
	"distiq/internal/pipeline"
	"distiq/internal/power"
)

// plainResult, plainManifest and plainEvent mirror engine.Result,
// engine.Manifest and client.StreamEvent without their methods, the
// result's breakdowns as maps from component label to energy, so
// encoding/json encodes and decodes them by reflection: the reference
// the event codec must match.
type plainResult struct {
	metrics.Run
	Stats                                pipeline.Stats
	IntBreakdown, FPBreakdown, Breakdown map[string]float64
}

type plainManifest engine.Manifest

// plainMap returns bd as the map its JSON object encodes: nil when bd
// charges nothing.
func plainMap(bd power.Breakdown) map[string]float64 {
	if bd.Empty() {
		return nil
	}
	m := map[string]float64{}
	for c := range power.NumComponents {
		if bd.Charged(c) {
			m[c.String()] = bd.Get(c)
		}
	}
	return m
}

type plainEvent struct {
	Index     int            `json:"index"`
	Benchmark string         `json:"benchmark,omitempty"`
	Source    engine.Source  `json:"source,omitempty"`
	Result    *plainResult   `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
	Done      bool           `json:"done,omitempty"`
	Points    int            `json:"points,omitempty"`
	Manifest  *plainManifest `json:"manifest,omitempty"`
}

func toPlain(ev client.StreamEvent) plainEvent {
	var r *plainResult
	if ev.Result != nil {
		r = &plainResult{ev.Result.Run, ev.Result.Stats, plainMap(ev.Result.IntBreakdown),
			plainMap(ev.Result.FPBreakdown), plainMap(ev.Result.Breakdown())}
	}
	return plainEvent{ev.Index, ev.Benchmark, ev.Source, r, ev.Error, ev.Done, ev.Points,
		(*plainManifest)(ev.Manifest)}
}

// encoderLine is the line json.Encoder writes for ev by reflection.
func encoderLine(t *testing.T, ev client.StreamEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(toPlain(ev)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEventCodec asserts that AppendLine writes json.Encoder's line for
// ev and that UnmarshalJSON reads it back as encoding/json does.
func checkEventCodec(t *testing.T, ev client.StreamEvent) {
	t.Helper()
	got, err := ev.AppendLine(nil)
	if err != nil {
		t.Fatalf("AppendLine: %v", err)
	}
	want := encoderLine(t, ev)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendLine differs from json.Encoder:\n got %s\nwant %s", got, want)
	}
	checkEventDecoder(t, got, true)
}

// checkEventDecoder asserts that whatever UnmarshalJSON accepts,
// encoding/json accepts too and decodes to the same event; with must,
// the decoder has to accept data.
func checkEventDecoder(t *testing.T, data []byte, must bool) {
	t.Helper()
	var got client.StreamEvent
	if err := got.UnmarshalJSON(data); err != nil {
		if must {
			t.Fatalf("decoding %s: %v", data, err)
		}
		return
	}
	var ref plainEvent
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("decoder accepted %q, which encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(toPlain(got), ref) {
		t.Fatalf("decoded %q as %+v, encoding/json as %+v", data, toPlain(got), ref)
	}
}

// eventGen builds stream events from fuzz bytes, drawing strings and
// numbers from tables of the cases encoding/json treats specially.
type eventGen struct{ b []byte }

func (g *eventGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

var eventStrings = []string{
	"", "swim", "simulated", `say "hi"`, "a\\b", "<b>&</b>", "line\nbreak", "héllo",
	" ", "\xff", "ctl\x01",
}

func (g *eventGen) str() string { return eventStrings[int(g.byte())%len(eventStrings)] }

func (g *eventGen) num() int {
	return []int{0, 1, -1, 7, 1 << 40, math.MaxInt64, math.MinInt64}[int(g.byte())%7]
}

func (g *eventGen) float() float64 {
	return []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 9.99e20, 5e-324, 1.5}[int(g.byte())%8]
}

// breakdown charges the components two bytes select with energies from
// float.
func (g *eventGen) breakdown() power.Breakdown {
	var bd power.Breakdown
	set := uint16(g.byte())<<8 | uint16(g.byte())
	for c := range power.NumComponents {
		if set&(1<<c) != 0 {
			bd.Set(c, g.float())
		}
	}
	return bd
}

func (g *eventGen) event() client.StreamEvent {
	ev := client.StreamEvent{Index: g.num(), Benchmark: g.str(), Source: engine.Source(g.str()),
		Error: g.str(), Done: g.byte()%2 == 1, Points: g.num()}
	if c := g.byte(); c%3 > 0 {
		r := &engine.Result{}
		r.Benchmark, r.Config, r.Insts, r.IQEnergy = g.str(), g.str(), math.MaxUint64, g.float()
		r.Stats.ByClass[g.byte()%uint8(len(r.Stats.ByClass))] = uint64(g.num())
		if c%3 == 2 {
			r.IntBreakdown, r.FPBreakdown = g.breakdown(), g.breakdown()
		}
		ev.Result = r
	}
	if g.byte()%2 == 1 {
		ev.Manifest = &engine.Manifest{Version: g.str(), Name: g.str(), Points: g.num(),
			Leaves: []engine.ManifestLeaf{{Index: g.num(), Benchmark: g.str(), Hash: g.str()}}}
	}
	return ev
}

// breakdownLines are event lines whose results carry breakdowns: every
// component, a component present at zero beside absent ones, buff2 and
// the four crossbar components, and lines the decoder refuses: a label
// outside the power model's set and a summed breakdown left out.
func breakdownLines() [][]byte {
	var all, zero, mux power.Breakdown
	for c := range power.NumComponents {
		all.Set(c, 0.5+float64(c))
	}
	zero.Set(power.Wakeup, 0)
	zero.Set(power.Buff2, 1.5)
	for _, c := range []power.Component{power.MuxIntALU, power.MuxIntMUL, power.MuxFPALU, power.MuxFPMUL} {
		mux.Set(c, 1e-7)
	}
	var lines [][]byte
	for _, bd := range [][2]power.Breakdown{{all, {}}, {zero, mux}, {{}, zero}, {mux, all}} {
		r := &engine.Result{}
		r.SetEnergy(bd[0], bd[1])
		line, err := (&client.StreamEvent{Index: 1, Benchmark: "swim", Source: engine.SourceMemory, Result: r}).AppendLine(nil)
		if err != nil {
			panic(err)
		}
		lines = append(lines, line)
	}
	return append(lines,
		[]byte(`{"index":0,"result":{"IntBreakdown":{"alloc":1},"Breakdown":{"alloc":1}}}`),
		[]byte(`{"index":0,"result":{"FPBreakdown":{"wakeup":0}}}`))
}

// FuzzStreamEvent checks AppendLine against json.Encoder and
// UnmarshalJSON against encoding/json: on an event built from the input,
// and on the input itself as a line.
func FuzzStreamEvent(f *testing.F) {
	for _, s := range []string{
		`{"index":0,"benchmark":"swim","source":"disk","result":{"Benchmark":"swim","Insts":1}}`,
		`{"index":3,"error":"bad \"spec\"\n<x>"}`,
		`{"index":0,"done":true,"points":2,"manifest":{"version":"v","points":2,"algo":"a","root":"r","leaves":[]}}`,
		`{"index":0,"result":null,"manifest":null}`, ` {"index":-0} `, `{"index":1e2}`,
		`{"index":9223372036854775808}`, `{"done":"true"}`, `{"index":1,"index":2}`,
		`{"Index":1}`, `{"manifest":{"leaves":[{"index":"x"}]}}`, `{"manifest":{]}`,
		`{"error":"\ud800"}`, `{"index":0}{}`, `[]`, "",
	} {
		f.Add([]byte(s))
	}
	for _, s := range breakdownLines() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEventCodec(t, (&eventGen{b: data}).event())
		checkEventDecoder(t, data, false)
	})
}

// TestStreamEventBytesOfRealSweep: every event of a real sweep, an error
// event whose message needs escaping and the done event with the
// sweep's manifest encode to exactly the line json.Encoder writes, so
// the NDJSON wire bytes are those of reflection.
func TestStreamEventBytesOfRealSweep(t *testing.T) {
	grid := testGrid(t)
	st := client.NewLocal().Sweep(context.Background(), grid)
	var events []client.StreamEvent
	for st.Next() {
		u := st.Update()
		r := u.Result
		events = append(events, client.StreamEvent{Index: u.Index, Benchmark: u.Point.Bench,
			Source: u.Source, Result: &r})
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Manifest() == nil {
		t.Fatal("sweep produced no manifest")
	}
	events = append(events,
		client.StreamEvent{Index: 2, Error: `point failed: "swim"` + "\n<retry>"},
		client.StreamEvent{Done: true, Points: grid.Size(), Manifest: st.Manifest()})
	for _, ev := range events {
		checkEventCodec(t, ev)
	}
}

// TestStreamEventEncodeErrorKeepsBuffer: an event whose result holds a
// non-finite float fails to encode and leaves the buffer as it was.
func TestStreamEventEncodeErrorKeepsBuffer(t *testing.T) {
	r := &engine.Result{}
	r.IQEnergy = math.Inf(1)
	prefix := []byte("kept\n")
	got, err := (&client.StreamEvent{Index: 1, Result: r}).AppendLine(prefix)
	if err == nil || string(got) != "kept\n" {
		t.Fatalf("AppendLine = %q, %v; want the prefix and an error", got, err)
	}
}
