package engine

import (
	"fmt"
	"math"
	"strconv"

	"distiq/internal/jsonwire"
	"distiq/internal/pipeline"
	"distiq/internal/power"
)

// AppendJSON appends r's JSON encoding to b: the bytes encoding/json
// writes by reflection for a Result whose breakdowns are maps from
// component label to energy, built without either. Fields come in
// declaration order with metrics.Run flattened, then the summed
// breakdown as "Breakdown"; a breakdown lists its charged components in
// label order, and one that charges none is null. Floats are in
// encoding/json's form, and a non-finite float is an error, as it is in
// encoding/json.
func (r Result) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"Benchmark":`...)
	b = jsonwire.AppendString(b, r.Benchmark)
	b = append(b, `,"Config":`...)
	b = jsonwire.AppendString(b, r.Config)
	b = append(b, `,"Insts":`...)
	b = strconv.AppendUint(b, r.Insts, 10)
	b = append(b, `,"Cycles":`...)
	b = strconv.AppendUint(b, r.Cycles, 10)
	b = append(b, `,"IQEnergy":`...)
	b, err := jsonwire.AppendFloat(b, r.IQEnergy)
	if err != nil {
		return b[:start], err
	}
	s := &r.Stats
	b = append(b, `,"Stats":{"Cycles":`...)
	b = strconv.AppendUint(b, s.Cycles, 10)
	b = append(b, `,"Committed":`...)
	b = strconv.AppendUint(b, s.Committed, 10)
	b = append(b, `,"ByClass":[`...)
	for i, n := range s.ByClass {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, n, 10)
	}
	b = append(b, `],"Branches":`...)
	b = strconv.AppendUint(b, s.Branches, 10)
	b = append(b, `,"Mispredicts":`...)
	b = strconv.AppendUint(b, s.Mispredicts, 10)
	b = append(b, `,"Misfetches":`...)
	b = strconv.AppendUint(b, s.Misfetches, 10)
	b = append(b, `,"StallScheme":`...)
	b = strconv.AppendUint(b, s.StallScheme, 10)
	b = append(b, `,"StallROB":`...)
	b = strconv.AppendUint(b, s.StallROB, 10)
	b = append(b, `,"StallRegs":`...)
	b = strconv.AppendUint(b, s.StallRegs, 10)
	b = append(b, `,"ICacheMissCycles":`...)
	b = strconv.AppendUint(b, s.ICacheMissCycles, 10)
	b = append(b, `,"IssuedInt":`...)
	b = strconv.AppendUint(b, s.IssuedInt, 10)
	b = append(b, `,"IssuedFP":`...)
	b = strconv.AppendUint(b, s.IssuedFP, 10)
	b = append(b, `,"LoadForwards":`...)
	b = strconv.AppendUint(b, s.LoadForwards, 10)
	b = append(b, `},"IntBreakdown":`...)
	if b, err = appendBreakdown(b, r.IntBreakdown); err != nil {
		return b[:start], err
	}
	b = append(b, `,"FPBreakdown":`...)
	if b, err = appendBreakdown(b, r.FPBreakdown); err != nil {
		return b[:start], err
	}
	b = append(b, `,"Breakdown":`...)
	if b, err = appendBreakdown(b, r.Breakdown()); err != nil {
		return b[:start], err
	}
	return append(b, '}'), nil
}

// appendBreakdown appends bd as encoding/json writes the map from each
// charged component's label to its energy: keys sorted, which is
// component order, and null for a breakdown that charges nothing. The
// labels need no escaping.
func appendBreakdown(b []byte, bd power.Breakdown) ([]byte, error) {
	if bd.Empty() {
		return append(b, "null"...), nil
	}
	b = append(b, '{')
	sep := false
	for c := range power.NumComponents {
		if !bd.Charged(c) {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(append(append(b, '"'), c.String()...), `":`...)
		var err error
		if b, err = jsonwire.AppendFloat(b, bd.Get(c)); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// MarshalJSON returns AppendJSON's encoding, so every encoder of a
// Result, the store's entries and manifest leaves included, writes the
// same bytes.
func (r Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 1024))
}

// UnmarshalJSON decodes a Result without reflection. It accepts what
// AppendJSON writes, with any white space, and decodes every input it
// accepts as encoding/json would; unknown or repeated fields, a null
// where a number, string or object belongs and a ByClass of the wrong
// length are errors, and so are a breakdown naming a component outside
// the power model's set, an empty breakdown object, which no power model
// writes, and a "Breakdown" that is not the sum of the two domains'.
// null leaves r as it is, following encoding/json's convention; an error
// leaves r as it is.
func (r *Result) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDecoder(data)
	if d.Null() {
		return d.End()
	}
	var out Result
	out.DecodeJSON(&d)
	if err := d.End(); err != nil {
		return fmt.Errorf("engine: decode result: %w", err)
	}
	*r = out
	return nil
}

// DecodeJSON reads a Result object from d into r, for decoders of the
// documents that carry one; d holds the first error.
func (r *Result) DecodeJSON(d *jsonwire.Decoder) {
	var seen uint16
	var sum power.Breakdown
	d.Delim('{')
	for i := 0; d.More('}', i); i++ {
		var bit uint16
		switch string(d.Key()) {
		case "Benchmark":
			bit, r.Benchmark = 1<<0, d.String()
		case "Config":
			bit, r.Config = 1<<1, d.String()
		case "Insts":
			bit, r.Insts = 1<<2, d.Uint64()
		case "Cycles":
			bit, r.Cycles = 1<<3, d.Uint64()
		case "IQEnergy":
			bit, r.IQEnergy = 1<<4, d.Float64()
		case "Stats":
			bit = 1 << 5
			decodeStats(d, &r.Stats)
		case "IntBreakdown":
			bit, r.IntBreakdown = 1<<6, decodeBreakdown(d)
		case "FPBreakdown":
			bit, r.FPBreakdown = 1<<7, decodeBreakdown(d)
		case "Breakdown":
			bit, sum = 1<<8, decodeBreakdown(d)
		default:
			d.Fail("unknown result field")
		}
		if seen&bit != 0 {
			d.Fail("repeated result field")
		}
		seen |= bit
	}
	if !sameBreakdown(sum, r.Breakdown()) {
		d.Fail("breakdown is not the sum of the domains")
	}
}

// decodeBreakdown reads an object of component energies, or null as a
// breakdown that charges nothing. A repeated component takes its last
// value, as a map does.
func decodeBreakdown(d *jsonwire.Decoder) power.Breakdown {
	var bd power.Breakdown
	if d.Null() {
		return bd
	}
	d.Delim('{')
	for i := 0; d.More('}', i); i++ {
		c, ok := power.ComponentNamed(d.Key())
		if !ok {
			d.Fail("unknown breakdown component")
		}
		bd.Set(c, d.Float64())
	}
	if bd.Empty() {
		d.Fail("empty breakdown")
	}
	return bd
}

// sameBreakdown reports whether a and b charge the same components with
// bit-identical energies, so that they encode to the same bytes.
func sameBreakdown(a, b power.Breakdown) bool {
	for c := range power.NumComponents {
		if a.Charged(c) != b.Charged(c) || math.Float64bits(a.Get(c)) != math.Float64bits(b.Get(c)) {
			return false
		}
	}
	return true
}

// decodeStats reads a pipeline.Stats object into s.
func decodeStats(d *jsonwire.Decoder, s *pipeline.Stats) {
	var seen uint16
	d.Delim('{')
	for i := 0; d.More('}', i); i++ {
		var bit uint16
		switch string(d.Key()) {
		case "Cycles":
			bit, s.Cycles = 1<<0, d.Uint64()
		case "Committed":
			bit, s.Committed = 1<<1, d.Uint64()
		case "ByClass":
			bit = 1 << 2
			d.Delim('[')
			n := 0
			for ; d.More(']', n); n++ {
				if n == len(s.ByClass) {
					d.Fail("too many classes")
					break
				}
				s.ByClass[n] = d.Uint64()
			}
			if n != len(s.ByClass) {
				d.Fail("too few classes")
			}
		case "Branches":
			bit, s.Branches = 1<<3, d.Uint64()
		case "Mispredicts":
			bit, s.Mispredicts = 1<<4, d.Uint64()
		case "Misfetches":
			bit, s.Misfetches = 1<<5, d.Uint64()
		case "StallScheme":
			bit, s.StallScheme = 1<<6, d.Uint64()
		case "StallROB":
			bit, s.StallROB = 1<<7, d.Uint64()
		case "StallRegs":
			bit, s.StallRegs = 1<<8, d.Uint64()
		case "ICacheMissCycles":
			bit, s.ICacheMissCycles = 1<<9, d.Uint64()
		case "IssuedInt":
			bit, s.IssuedInt = 1<<10, d.Uint64()
		case "IssuedFP":
			bit, s.IssuedFP = 1<<11, d.Uint64()
		case "LoadForwards":
			bit, s.LoadForwards = 1<<12, d.Uint64()
		default:
			d.Fail("unknown stats field")
		}
		if seen&bit != 0 {
			d.Fail("repeated stats field")
		}
		seen |= bit
	}
}

// AppendJSON appends m's JSON encoding to b: the bytes encoding/json
// writes for a Manifest by reflection, built without it. Fields come in
// declaration order, an empty name is left out and nil leaves are null.
func (m *Manifest) AppendJSON(b []byte) []byte {
	b = append(b, `{"version":`...)
	b = jsonwire.AppendString(b, m.Version)
	if m.Name != "" {
		b = append(b, `,"name":`...)
		b = jsonwire.AppendString(b, m.Name)
	}
	b = append(b, `,"points":`...)
	b = strconv.AppendInt(b, int64(m.Points), 10)
	b = append(b, `,"algo":`...)
	b = jsonwire.AppendString(b, m.Algo)
	b = append(b, `,"root":`...)
	b = jsonwire.AppendString(b, m.Root)
	b = append(b, `,"leaves":`...)
	if m.Leaves == nil {
		b = append(b, "null"...)
		return append(b, '}')
	}
	b = append(b, '[')
	for i, l := range m.Leaves {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(l.Index), 10)
		b = append(b, `,"benchmark":`...)
		b = jsonwire.AppendString(b, l.Benchmark)
		b = append(b, `,"config":`...)
		b = jsonwire.AppendString(b, l.Config)
		b = append(b, `,"fingerprint":`...)
		b = jsonwire.AppendString(b, l.Fingerprint)
		b = append(b, `,"hash":`...)
		b = jsonwire.AppendString(b, l.Hash)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// UnmarshalJSON decodes a Manifest without reflection. It accepts what
// AppendJSON writes, with any white space, and decodes every input it
// accepts as encoding/json would; unknown or repeated keys and a null
// where a number, string or leaf belongs are errors. null leaves m as it
// is, following encoding/json's convention; an error leaves m as it is.
func (m *Manifest) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDecoder(data)
	if d.Null() {
		return d.End()
	}
	var out Manifest
	out.DecodeJSON(&d)
	if err := d.End(); err != nil {
		return fmt.Errorf("engine: decode manifest: %w", err)
	}
	*m = out
	return nil
}

// DecodeJSON reads a Manifest object from d into m, for decoders of the
// documents that carry one; d holds the first error.
func (m *Manifest) DecodeJSON(d *jsonwire.Decoder) {
	var seen uint8
	d.Delim('{')
	for i := 0; d.More('}', i); i++ {
		var bit uint8
		switch string(d.Key()) {
		case "version":
			bit, m.Version = 1<<0, d.String()
		case "name":
			bit, m.Name = 1<<1, d.String()
		case "points":
			bit, m.Points = 1<<2, d.Int()
		case "algo":
			bit, m.Algo = 1<<3, d.String()
		case "root":
			bit, m.Root = 1<<4, d.String()
		case "leaves":
			bit, m.Leaves = 1<<5, decodeLeaves(d)
		default:
			d.Fail("unknown manifest key")
		}
		if seen&bit != 0 {
			d.Fail("repeated manifest key")
		}
		seen |= bit
	}
}

// decodeLeaves reads an array of manifest leaves, null as nil and [] as
// an empty slice, as encoding/json does.
func decodeLeaves(d *jsonwire.Decoder) []ManifestLeaf {
	if d.Null() {
		return nil
	}
	leaves := []ManifestLeaf{}
	d.Delim('[')
	for i := 0; d.More(']', i); i++ {
		var l ManifestLeaf
		var seen uint8
		d.Delim('{')
		for k := 0; d.More('}', k); k++ {
			var bit uint8
			switch string(d.Key()) {
			case "index":
				bit, l.Index = 1<<0, d.Int()
			case "benchmark":
				bit, l.Benchmark = 1<<1, d.String()
			case "config":
				bit, l.Config = 1<<2, d.String()
			case "fingerprint":
				bit, l.Fingerprint = 1<<3, d.String()
			case "hash":
				bit, l.Hash = 1<<4, d.String()
			default:
				d.Fail("unknown manifest leaf key")
			}
			if seen&bit != 0 {
				d.Fail("repeated manifest leaf key")
			}
			seen |= bit
		}
		leaves = append(leaves, l)
	}
	return leaves
}
