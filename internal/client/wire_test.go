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
)

// plainResult, plainManifest and plainEvent are engine.Result,
// engine.Manifest and client.StreamEvent without their methods, so
// encoding/json encodes and decodes them by reflection: the reference
// the event codec must match.
type (
	plainResult   engine.Result
	plainManifest engine.Manifest
)

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
	return plainEvent{ev.Index, ev.Benchmark, ev.Source, (*plainResult)(ev.Result),
		ev.Error, ev.Done, ev.Points, (*plainManifest)(ev.Manifest)}
}

func (p plainEvent) event() client.StreamEvent {
	return client.StreamEvent{Index: p.Index, Benchmark: p.Benchmark, Source: p.Source,
		Result: (*engine.Result)(p.Result), Error: p.Error, Done: p.Done, Points: p.Points,
		Manifest: (*engine.Manifest)(p.Manifest)}
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
	if !reflect.DeepEqual(got, ref.event()) {
		t.Fatalf("decoded %q as %+v, encoding/json as %+v", data, got, ref.event())
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

func (g *eventGen) event() client.StreamEvent {
	ev := client.StreamEvent{Index: g.num(), Benchmark: g.str(), Source: engine.Source(g.str()),
		Error: g.str(), Done: g.byte()%2 == 1, Points: g.num()}
	if c := g.byte(); c%3 > 0 {
		r := &engine.Result{}
		r.Benchmark, r.Config, r.Insts, r.IQEnergy = g.str(), g.str(), math.MaxUint64, g.float()
		r.Stats.ByClass[g.byte()%uint8(len(r.Stats.ByClass))] = uint64(g.num())
		if c%3 == 2 {
			r.IntBreakdown = map[string]float64{}
			r.Breakdown = map[string]float64{g.str(): g.float(), g.str(): g.float()}
		}
		ev.Result = r
	}
	if g.byte()%2 == 1 {
		ev.Manifest = &engine.Manifest{Version: g.str(), Name: g.str(), Points: g.num(),
			Leaves: []engine.ManifestLeaf{{Index: g.num(), Benchmark: g.str(), Hash: g.str()}}}
	}
	return ev
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
