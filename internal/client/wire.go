package client

import (
	"encoding/json"
	"fmt"
	"strconv"

	"distiq/internal/engine"
	"distiq/internal/jsonwire"
)

// StreamEvent is one NDJSON line of the distiqd per-point results stream
// (the body of POST /v1/sweeps with an application/x-ndjson Accept
// header, and of GET /v1/sweeps/{id}/stream). The server
// (internal/serve) writes each line with AppendLine and Remote reads it
// with UnmarshalJSON, so the wire format has one definition.
//
// Three shapes appear on the wire, in grid order:
//
//	{"index":0,"benchmark":"swim","source":"simulated","result":{...}}  per point
//	{"index":7,"error":"..."}                                           terminal failure
//	{"index":0,"done":true,"points":12,"manifest":{...}}                terminal success
//
// The result object is the engine's Result JSON — the same encoding the
// persistent store uses — so a decoded stream reconstructs results
// exactly and documents emitted from them are byte-identical to the
// server's own emitters.
type StreamEvent struct {
	// Index is the point's position in the grid (present on per-point
	// and error events; 0 on the done event, which carries no point).
	Index int `json:"index"`
	// Benchmark names the point's workload (informational; the client
	// already knows the grid).
	Benchmark string `json:"benchmark,omitempty"`
	// Source says how the server resolved the point.
	Source engine.Source `json:"source,omitempty"`
	// Result is the point's outcome; nil on terminal events.
	Result *engine.Result `json:"result,omitempty"`
	// Error terminates a failed stream (set on the first failed point in
	// grid order).
	Error string `json:"error,omitempty"`
	// Done terminates a successful stream; Points echoes the grid size.
	Done   bool `json:"done,omitempty"`
	Points int  `json:"points,omitempty"`
	// Manifest is the sweep's tamper-evident Merkle manifest, carried on
	// the done event only, so a streaming consumer can verify (or
	// archive) the sweep without a second request.
	Manifest *engine.Manifest `json:"manifest,omitempty"`
}

// AppendLine appends ev's NDJSON line to b: the bytes json.Encoder
// writes for ev, newline included, built without reflection but for the
// done event's manifest. On error b comes back as it was.
func (ev *StreamEvent) AppendLine(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(ev.Index), 10)
	if ev.Benchmark != "" {
		b = append(b, `,"benchmark":`...)
		b = jsonwire.AppendString(b, ev.Benchmark)
	}
	if ev.Source != "" {
		b = append(b, `,"source":`...)
		b = jsonwire.AppendString(b, string(ev.Source))
	}
	if ev.Result != nil {
		b = append(b, `,"result":`...)
		var err error
		if b, err = ev.Result.AppendJSON(b); err != nil {
			return b[:start], fmt.Errorf("client: encode stream event: %w", err)
		}
	}
	if ev.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonwire.AppendString(b, ev.Error)
	}
	if ev.Done {
		b = append(b, `,"done":true`...)
	}
	if ev.Points != 0 {
		b = append(b, `,"points":`...)
		b = strconv.AppendInt(b, int64(ev.Points), 10)
	}
	if ev.Manifest != nil {
		m, err := json.Marshal(ev.Manifest)
		if err != nil {
			return b[:start], fmt.Errorf("client: encode stream event: %w", err)
		}
		b = append(b, `,"manifest":`...)
		b = append(b, m...)
	}
	return append(b, '}', '\n'), nil
}

// UnmarshalJSON decodes one event line without reflection but for the
// done event's manifest, so a reader need not have encoding/json scan
// the line first. It decodes every line it accepts as encoding/json
// would; unknown or repeated keys and a null where a number, string or
// boolean belongs are errors. An error leaves ev as it is.
func (ev *StreamEvent) UnmarshalJSON(line []byte) error {
	d := jsonwire.NewDecoder(line)
	var out StreamEvent
	var seen uint8
	d.Delim('{')
	for i := 0; d.More('}', i); i++ {
		var bit uint8
		switch string(d.Key()) {
		case "index":
			bit, out.Index = 1<<0, d.Int()
		case "benchmark":
			bit, out.Benchmark = 1<<1, d.String()
		case "source":
			bit, out.Source = 1<<2, engine.Source(d.String())
		case "result":
			bit = 1 << 3
			if !d.Null() {
				out.Result = new(engine.Result)
				out.Result.DecodeJSON(&d)
			}
		case "error":
			bit, out.Error = 1<<4, d.String()
		case "done":
			bit, out.Done = 1<<5, d.Bool()
		case "points":
			bit, out.Points = 1<<6, d.Int()
		case "manifest":
			bit = 1 << 7
			if !d.Null() {
				out.Manifest = new(engine.Manifest)
				if raw := d.Object(); raw != nil && json.Unmarshal(raw, out.Manifest) != nil {
					d.Fail("invalid manifest")
				}
			}
		default:
			d.Fail("unknown stream event key")
		}
		if seen&bit != 0 {
			d.Fail("repeated stream event key")
		}
		seen |= bit
	}
	if err := d.End(); err != nil {
		return fmt.Errorf("client: decode stream event: %w", err)
	}
	*ev = out
	return nil
}
