package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"distiq/internal/core"
	"distiq/internal/metrics"
)

// plainResult is Result without its methods, so encoding/json encodes
// and decodes it by reflection: the reference AppendJSON and
// UnmarshalJSON must match byte for byte and value for value.
type plainResult Result

// resultGen builds Results from fuzz bytes. Strings, floats and maps
// come from tables of the cases encoding/json treats specially, or
// from the raw bytes.
type resultGen struct {
	b []byte
	// lossy is set once a string holds invalid UTF-8, which no JSON
	// round trip keeps.
	lossy bool
}

func (g *resultGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *resultGen) uint64() uint64 {
	switch c := g.byte(); c % 4 {
	case 0:
		return math.MaxUint64
	case 1:
		return uint64(c)
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

// codecFloats are the floats around encoding/json's cutoffs between
// plain and exponent form, signed zeros and subnormals.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-6, math.Nextafter(1e-6, 0),
	-1e-6, 1e-7, 1.5e-9, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.234e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, 3.9e-322,
}

func (g *resultGen) float() float64 {
	if c := g.byte(); c < 160 {
		return codecFloats[int(c)%len(codecFloats)]
	}
	f := math.Float64frombits(g.uint64())
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0.25
	}
	return f
}

// codecStrings hold every class of character encoding/json escapes.
var codecStrings = []string{
	"", "swim", "MB_distr", `a"b`, `back\slash`, "<tag>&amp;", "héllo", "日本",
	"\xff\xfe", "ok\x80", "  ", "ctl\x01\x1f\x7f", "tab\tnl\ncr\r", "\b\f",
}

func (g *resultGen) str() string {
	var s string
	if c := g.byte(); c < 200 {
		s = codecStrings[int(c)%len(codecStrings)]
	} else {
		raw := make([]byte, g.byte()%12)
		for i := range raw {
			raw[i] = g.byte()
		}
		s = string(raw)
	}
	if !utf8.ValidString(s) {
		g.lossy = true
	}
	return s
}

func (g *resultGen) floatMap() map[string]float64 {
	switch c := g.byte(); c % 4 {
	case 0:
		return nil
	case 1:
		return map[string]float64{}
	}
	m := map[string]float64{}
	for n := g.byte() % 20; n > 0; n-- {
		m[g.str()] = g.float()
	}
	return m
}

func (g *resultGen) result() Result {
	var r Result
	r.Benchmark, r.Config = g.str(), g.str()
	r.Insts, r.Cycles, r.IQEnergy = g.uint64(), g.uint64(), g.float()
	s := &r.Stats
	for _, p := range []*uint64{&s.Cycles, &s.Committed, &s.Branches, &s.Mispredicts,
		&s.Misfetches, &s.StallScheme, &s.StallROB, &s.StallRegs, &s.ICacheMissCycles,
		&s.IssuedInt, &s.IssuedFP, &s.LoadForwards} {
		*p = g.uint64()
	}
	for i := range s.ByClass {
		s.ByClass[i] = g.uint64()
	}
	r.IntBreakdown, r.FPBreakdown, r.Breakdown = g.floatMap(), g.floatMap(), g.floatMap()
	return r
}

// checkResultCodec asserts the codec properties on r: AppendJSON writes
// what reflection writes, and decoding that gives what encoding/json
// decodes from it, which is r itself unless a string was invalid UTF-8.
func checkResultCodec(t *testing.T, r Result, lossy bool) {
	t.Helper()
	got, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatalf("AppendJSON: %v", err)
	}
	want, err := json.Marshal(plainResult(r))
	if err != nil {
		t.Fatalf("reflection: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	var back Result
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("decoding %s: %v", got, err)
	}
	var ref plainResult
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, Result(ref)) {
		t.Fatalf("decoded %+v, encoding/json decoded %+v", back, Result(ref))
	}
	if !lossy && !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip gave %+v, want %+v", back, r)
	}
}

// checkResultDecoder asserts that whatever the decoder accepts,
// encoding/json accepts too and decodes to the same value.
func checkResultDecoder(t *testing.T, data []byte) {
	t.Helper()
	var got Result
	if err := got.UnmarshalJSON(data); err != nil {
		return
	}
	var ref plainResult
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("decoder accepted %q, which encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(got, Result(ref)) {
		t.Fatalf("decoded %q as %+v, encoding/json as %+v", data, got, Result(ref))
	}
}

// FuzzResultJSON checks AppendJSON against reflection and the decoder
// against encoding/json: on a Result built from the input, and on the
// input itself as a document.
func FuzzResultJSON(f *testing.F) {
	seed := (&resultGen{b: []byte("seed corpus result 0123456789abcdef")}).result()
	enc, _ := seed.AppendJSON(nil)
	indented, _ := json.MarshalIndent(plainResult(seed), "", " ")
	for _, s := range [][]byte{
		enc, indented, []byte("null"), []byte(" null "), []byte("{}"),
		[]byte(`{"Benchmark":"ab","Insts":18446744073709551615,"IQEnergy":-0,"Breakdown":{"x":1e-7,"x":2}}`),
		[]byte(`{"Insts":18446744073709551616}`), []byte(`{"Insts":1.0}`), []byte(`{"Insts":-1}`),
		[]byte(`{"IQEnergy":1e400}`), []byte(`{"IQEnergy":01}`), []byte(`{"Benchmark":"a","Benchmark":"b"}`),
		[]byte(`{"benchmark":"a"}`), []byte(`{"Stats":{"ByClass":[1,2]}}`), []byte(`{"Breakdown":null}`),
		[]byte(`{"Config":"\xff<>"}`), []byte(`{"Benchmark":null}`), []byte(`{"Cycles":1,}`),
		[]byte("\x00"), []byte(`{"IntBreakdown":{"a":1}`),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &resultGen{b: data}
		r := g.result()
		checkResultCodec(t, r, g.lossy)
		checkResultDecoder(t, data)
	})
}

// FuzzEntryBytes checks entryBytes against json.MarshalIndent of the
// store entry it renders, for any benchmark and configuration name, any
// lengths, the Table 1 machine or an override, and a Result built from
// the input.
func FuzzEntryBytes(f *testing.F) {
	for i, s := range codecStrings {
		f.Add(s, codecStrings[(i+3)%len(codecStrings)], uint64(1000), uint64(4000), i%2 == 0,
			[]byte("seed corpus result 0123456789abcdef"[i:]))
	}
	f.Add("swim", "MB_distr", uint64(0), uint64(math.MaxUint64), false, []byte{})
	f.Fuzz(func(t *testing.T, bench, config string, warmup, insts uint64, override bool, data []byte) {
		job := Job{Bench: bench, Config: core.Config{Name: config}, Opt: Options{Warmup: warmup, Instructions: insts}}
		if override {
			job.Machine = &Machine{ROBSize: 128, PerfectDisambiguation: true}
		}
		r := (&resultGen{b: data}).result()
		got, err := entryBytes(job, r)
		if err != nil {
			t.Fatalf("entryBytes: %v", err)
		}
		want, err := json.MarshalIndent(entry{storeVersion, bench, config, job.machineCanon(), warmup, insts, r}, "", " ")
		if err != nil {
			t.Fatalf("MarshalIndent: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("entryBytes differs from json.MarshalIndent:\n got %s\nwant %s", got, want)
		}
	})
}

// TestResultJSONSimulated: results the simulator computed encode as
// reflection encodes them, and so do their store entries, the bytes
// every warm store and manifest root is built on.
func TestResultJSONSimulated(t *testing.T) {
	for _, cfg := range []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()} {
		for _, bench := range []string{"gcc", "swim"} {
			job := quickJob(bench, cfg)
			r, err := Simulate(job)
			if err != nil {
				t.Fatal(err)
			}
			checkResultCodec(t, r, false)
			got, err := entryBytes(job, r)
			if err != nil {
				t.Fatal(err)
			}
			type plainEntry struct {
				Version      int         `json:"version"`
				Benchmark    string      `json:"benchmark"`
				Config       string      `json:"config"`
				Machine      string      `json:"machine"`
				Warmup       uint64      `json:"warmup"`
				Instructions uint64      `json:"instructions"`
				Result       plainResult `json:"result"`
			}
			want, err := json.MarshalIndent(plainEntry{storeVersion, bench, cfg.Name, job.machineCanon(),
				job.Opt.Warmup, job.Opt.Instructions, plainResult(r)}, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s under %s: store entry differs from reflection's", bench, cfg.Name)
			}
			back, ok := decodeEntry(got, job)
			if !ok || !reflect.DeepEqual(back, r) {
				t.Fatalf("%s under %s: entry does not decode to its result", bench, cfg.Name)
			}
		}
	}
}

// TestResultJSONNonFinite: a non-finite float is an error through every
// encoder, as it is by reflection.
func TestResultJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []Result{
			{Run: metrics.Run{IQEnergy: f}},
			{Breakdown: map[string]float64{"wakeup": f}},
		} {
			if _, err := r.AppendJSON(nil); err == nil {
				t.Errorf("AppendJSON of %v: no error", f)
			}
			if _, err := json.Marshal(r); err == nil {
				t.Errorf("json.Marshal of %v: no error", f)
			}
			if _, err := json.Marshal(plainResult(r)); err == nil {
				t.Errorf("reflection of %v: no error", f)
			}
		}
	}
}

// TestResultUnmarshalNullKeeps: null leaves the target as it is, and so
// does a failed decode.
func TestResultUnmarshalNullKeeps(t *testing.T) {
	r := Result{Breakdown: map[string]float64{"reg": 1}}
	r.Insts = 7
	for _, data := range []string{"null", `{"Insts":1,"Bogus":2}`} {
		got := r
		_ = got.UnmarshalJSON([]byte(data))
		if !reflect.DeepEqual(got, r) {
			t.Errorf("after %s: %+v, want %+v", data, got, r)
		}
	}
}

// BenchmarkEntryBytes times a store entry's encoding against
// json.MarshalIndent of the entry on a simulated MB_distr result, the
// bytes every store Put writes and every fresh manifest leaf hashes.
func BenchmarkEntryBytes(b *testing.B) {
	job := quickJob("swim", core.MBDistr())
	r, err := Simulate(job)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("entryBytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entrySink, _ = entryBytes(job, r)
		}
	})
	b.Run("MarshalIndent", func(b *testing.B) {
		b.ReportAllocs()
		ent := entry{storeVersion, job.Bench, job.Config.Name, job.machineCanon(),
			job.Opt.Warmup, job.Opt.Instructions, r}
		for i := 0; i < b.N; i++ {
			entrySink, _ = json.MarshalIndent(ent, "", " ")
		}
	})
}

// entrySink keeps BenchmarkEntryBytes's encodings live.
var entrySink []byte

// BenchmarkResultJSON times the codec against reflection on a simulated
// MB_distr result, the shape a stream line and a store entry carry.
func BenchmarkResultJSON(b *testing.B) {
	r, err := Simulate(quickJob("swim", core.MBDistr()))
	if err != nil {
		b.Fatal(err)
	}
	data, _ := r.AppendJSON(nil)
	b.Run("AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2048)
		for i := 0; i < b.N; i++ {
			buf, _ = r.AppendJSON(buf[:0])
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(r)
		}
	})
	b.Run("reflect-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(plainResult(r))
		}
	})
	b.Run("UnmarshalJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Result
			_ = out.UnmarshalJSON(data)
		}
	})
	b.Run("reflect-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out plainResult
			_ = json.Unmarshal(data, &out)
		}
	})
}

// plainManifest is Manifest without its methods, so encoding/json
// encodes and decodes it by reflection: the reference the manifest codec
// must match.
type plainManifest Manifest

func (g *resultGen) int() int {
	return int(g.uint64())
}

func (g *resultGen) manifest() Manifest {
	m := Manifest{Version: g.str(), Name: g.str(), Points: g.int(), Algo: g.str(), Root: g.str()}
	switch c := g.byte(); c % 4 {
	case 0:
	case 1:
		m.Leaves = []ManifestLeaf{}
	default:
		for n := c%8 + 1; n > 0; n-- {
			m.Leaves = append(m.Leaves, ManifestLeaf{Index: g.int(), Benchmark: g.str(),
				Config: g.str(), Fingerprint: g.str(), Hash: g.str()})
		}
	}
	return m
}

// checkManifestCodec asserts that AppendJSON and JSON write what
// reflection writes for m, compact and indented, and that decoding that
// gives what encoding/json decodes from it, which is m itself unless a
// string was invalid UTF-8.
func checkManifestCodec(t *testing.T, m Manifest, lossy bool) {
	t.Helper()
	got := m.AppendJSON(nil)
	want, err := json.Marshal(plainManifest(m))
	if err != nil {
		t.Fatalf("reflection: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	file, err := m.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if want, _ := json.MarshalIndent(plainManifest(m), "", " "); !bytes.Equal(file, want) {
		t.Fatalf("JSON differs from json.MarshalIndent:\n got %s\nwant %s", file, want)
	}
	var back Manifest
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("decoding %s: %v", got, err)
	}
	var ref plainManifest
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, Manifest(ref)) {
		t.Fatalf("decoded %+v, encoding/json decoded %+v", back, Manifest(ref))
	}
	if !lossy && !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip gave %+v, want %+v", back, m)
	}
}

// checkManifestDecoder asserts that whatever the decoder accepts,
// encoding/json accepts too and decodes to the same value.
func checkManifestDecoder(t *testing.T, data []byte) {
	t.Helper()
	var got Manifest
	if err := got.UnmarshalJSON(data); err != nil {
		return
	}
	var ref plainManifest
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("decoder accepted %q, which encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(got, Manifest(ref)) {
		t.Fatalf("decoded %q as %+v, encoding/json as %+v", data, got, Manifest(ref))
	}
}

// FuzzManifestJSON checks the manifest's AppendJSON against reflection
// and its decoder against encoding/json: on a Manifest built from the
// input, and on the input itself as a document.
func FuzzManifestJSON(f *testing.F) {
	real, err := BuildManifest("sweep", manifestJobs(3), manifestResults(3))
	if err != nil {
		f.Fatal(err)
	}
	indented, _ := json.MarshalIndent(plainManifest(*real), "", " ")
	for _, s := range [][]byte{
		real.AppendJSON(nil), indented, []byte("null"), []byte(" null "), []byte("{}"),
		[]byte(`{"leaves":null}`), []byte(`{"leaves":[]}`), []byte(`{"leaves":[{}]}`), []byte(`{"leaves":[null]}`),
		[]byte(`{"version":"a","version":"b"}`), []byte(`{"leaves":[{"index":1,"index":2}]}`),
		[]byte(`{"bogus":1}`), []byte(`{"leaves":[{"bogus":1}]}`), []byte(`{"Version":"v"}`),
		[]byte(`{"points":1e2}`), []byte(`{"points":-0}`), []byte(`{"points":null}`), []byte(`{"name":"é<\ud800"}`),
		[]byte(`{"leaves":{}}`), []byte(`{} {}`), []byte(`{"root":"r",}`), []byte(""),
		[]byte("seed corpus manifest 0123456789abcdef"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &resultGen{b: data}
		m := g.manifest()
		checkManifestCodec(t, m, g.lossy)
		checkManifestDecoder(t, data)
	})
}
