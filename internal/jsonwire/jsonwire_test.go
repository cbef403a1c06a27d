package jsonwire

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendMatchesEncodingJSON: strings and floats append as
// encoding/json marshals them. The engine and client fuzz targets
// check the same through the types built on these.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "swim", `q"`, `\`, "<>&", "é", "\xff", " ", "\x00\x1f\x7f", "\b\f\n\r\t"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21,
		math.Nextafter(1e21, 0), -1e21, 5e-324, math.MaxFloat64, 0.1, 100} {
		want, _ := json.Marshal(f)
		if got, err := AppendFloat(nil, f); err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	if _, err := AppendFloat(nil, math.NaN()); err == nil {
		t.Error("AppendFloat(NaN): no error")
	}
}

// TestDecoderRejects: malformed input is an error, never a panic, and
// the error sticks.
func TestDecoderRejects(t *testing.T) {
	for _, in := range []string{"", "{", `{"a"`, `{"a":}`, `{"a":1,}`, `{"a":1 "b":2}`, `{"a":01}`,
		`{"a":1.}`, `{"a":1e}`, `{"a":-}`, `{"a":"\u00"}`, "{\"a\":\"\x01\"}", `{"a":tru}`, `{"a":1}x`,
		`{"a":{"b":}`, `{"a":"\`} {
		d := NewDecoder([]byte(in))
		d.Delim('{')
		for i := 0; d.More('}', i); i++ {
			d.Key()
			switch d.peek() {
			case '"':
				_ = d.String()
			case 't', 'f':
				d.Bool()
			case '{':
				d.Delim('{')
				for j := 0; d.More('}', j); j++ {
					d.Key()
					d.Float64()
				}
			default:
				d.Float64()
			}
		}
		if d.End() == nil {
			t.Errorf("%q decoded without error", in)
		}
	}
}
