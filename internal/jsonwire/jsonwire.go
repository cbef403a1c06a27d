// Package jsonwire writes and reads JSON byte for byte as encoding/json
// does, without reflection, for the few types encoded on every request:
// engine.Result (the stream's result object), the store entry that
// carries it, engine.Manifest (the done event's manifest) and
// client.StreamEvent (the NDJSON line). The rare inputs its fast paths
// do not cover, a string that needs escaping or unescaping, go through
// encoding/json itself.
package jsonwire

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// AppendString appends s as a JSON string, escaped as encoding/json
// escapes it: HTML characters, control characters, U+2028 and U+2029 as
// \u escapes and invalid UTF-8 as U+FFFD. A string holding only
// printable ASCII that needs no escape is copied as is; any other goes
// through encoding/json.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 up, with a two-digit negative exponent cut to one (1e-07 reads
// 1e-7). A non-finite f is an error, as it is in encoding/json.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("jsonwire: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendFloatMap appends m as a JSON object with its keys sorted, or
// null for a nil map, as encoding/json writes a map[string]float64.
func AppendFloatMap(b []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	var buf [16]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = AppendFloat(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// Decoder reads one JSON value token by token from a byte slice. It
// accepts a subset of what encoding/json accepts and reads every value
// it accepts as encoding/json would; the callers reject unknown and
// repeated object keys on top. Its errors are sticky: after the first,
// every read returns a zero value, More reports false and End the error.
type Decoder struct {
	data []byte
	pos  int
	err  error
}

// NewDecoder returns a Decoder reading data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// Fail records a syntax error at the current offset unless one is
// already recorded.
func (d *Decoder) Fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("jsonwire: %s at offset %d", msg, d.pos)
	}
}

// End reports the first error, or an error if anything but white space
// follows the value.
func (d *Decoder) End() error {
	if d.peek() != 0 || d.pos != len(d.data) {
		d.Fail("data after the value")
	}
	return d.err
}

// peek skips white space and returns the next byte, or 0 at the end of
// the input or after an error.
func (d *Decoder) peek() byte {
	for d.err == nil && d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// Delim consumes the delimiter c: '{', '[' or ':'.
func (d *Decoder) Delim(c byte) {
	if d.peek() != c {
		d.Fail("expected " + string(c))
		return
	}
	d.pos++
}

// More reports whether the object or array whose closing delimiter is
// end holds an i-th member (counting from 0), consuming the comma
// before it; at the closing delimiter it consumes that and reports
// false. Walk an object as
//
//	d.Delim('{')
//	for i := 0; d.More('}', i); i++ { key := d.Key(); ... }
func (d *Decoder) More(end byte, i int) bool {
	c := d.peek()
	switch {
	case d.err != nil:
		return false
	case c == end:
		d.pos++
		return false
	case i == 0:
		return true
	case c == ',':
		d.pos++
		return true
	}
	d.Fail("expected , or " + string(end))
	return false
}

// Key reads an object key and the colon after it. The key aliases the
// input unless it held an escape or a non-ASCII byte.
func (d *Decoder) Key() []byte {
	k := d.str()
	d.Delim(':')
	return k
}

// String reads a string.
func (d *Decoder) String() string { return string(d.str()) }

// str reads a string token and returns its text: a slice of the input
// when it holds only printable ASCII and no escape, else the text
// encoding/json decodes from it.
func (d *Decoder) str() []byte {
	if d.peek() != '"' {
		d.Fail("expected string")
		return nil
	}
	open := d.pos
	for i := open + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[open+1 : i]
		case c == '\\' || c >= 0x80:
			return d.slowStr(open)
		case c < 0x20:
			d.Fail("control character in string")
			return nil
		}
	}
	d.Fail("unterminated string")
	return nil
}

// slowStr decodes the string token opening at open through
// encoding/json.
func (d *Decoder) slowStr(open int) []byte {
	i := open + 1
	for i < len(d.data) && d.data[i] != '"' {
		if d.data[i] == '\\' {
			i++
		}
		i++
	}
	if i >= len(d.data) {
		d.Fail("unterminated string")
		return nil
	}
	var s string
	if err := json.Unmarshal(d.data[open:i+1], &s); err != nil {
		d.Fail("invalid string")
		return nil
	}
	d.pos = i + 1
	return []byte(s)
}

// number reads a number token as the JSON grammar spells one.
func (d *Decoder) number() []byte {
	d.peek()
	data, start := d.data, d.pos
	digits := func(i int) int {
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i
	}
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case d.err != nil:
		return nil
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(i)
	default:
		d.Fail("expected number")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			d.Fail("expected digit")
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			d.Fail("expected digit")
			return nil
		}
	}
	d.pos = i
	return data[start:i]
}

// Uint64 reads an unsigned integer: digits only, as encoding/json takes
// a number into a uint64.
func (d *Decoder) Uint64() uint64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.Fail("expected uint64")
		return 0
	}
	return n
}

// Int reads an integer that fits an int.
func (d *Decoder) Int() int {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		d.Fail("expected int")
		return 0
	}
	return int(n)
}

// Float64 reads a number into a float64.
func (d *Decoder) Float64() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.Fail("expected float64")
		return 0
	}
	return f
}

// Bool reads true or false.
func (d *Decoder) Bool() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	}
	d.Fail("expected true or false")
	return false
}

// Null consumes a null and reports whether there was one.
func (d *Decoder) Null() bool { return d.literal("null") }

// literal consumes lit if it comes next.
func (d *Decoder) literal(lit string) bool {
	if d.peek() == 0 || len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// FloatMap reads an object of numbers, or null as a nil map.
func (d *Decoder) FloatMap() map[string]float64 {
	if d.Null() {
		return nil
	}
	m := make(map[string]float64)
	d.Delim('{')
	for i := 0; d.More('}', i); i++ {
		k := d.Key()
		m[string(k)] = d.Float64()
	}
	if d.err != nil {
		return nil
	}
	return m
}
