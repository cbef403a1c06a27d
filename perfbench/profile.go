package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The traced run takes a runtime/pprof CPU profile of its traced window
// and attributes every sample to one layer. Per-call timers would perturb
// a cycle loop that costs a few hundred nanoseconds per instruction; a
// sampling profile does not.

// profileLayers are the layers a sample can be attributed to, named after
// the repository's modules (plus the standard-library groups the service
// path spends time in). The remainder is "other".
var profileLayers = []string{
	"trace", "core", "pipeline", "cache", "bpred", "rename", "rob", "lsq", "fu",
	"engine", "store", "scenario", "serve", "client",
	"json", "net_http", "crypto", "gc", "runtime", "other",
}

// frameShares are the cumulative shares of single hot functions the
// ROADMAP names, keyed by metric name: a sample counts when the function
// is anywhere on its stack.
var frameShares = map[string]string{
	"core.cam_oncomplete_share": "distiq/internal/core.(*camQueue).OnComplete",
	"core.mixbuff_issue_share":  "distiq/internal/core.(*mixBUFF).Issue",
	"core.fifo_issue_share":     "distiq/internal/core.(*issueFIFO).Issue",
}

// profileShares is the attribution of one profile.
type profileShares struct {
	Samples int64              // sample count
	Layer   map[string]float64 // layer -> share of sampled CPU time
	Frame   map[string]float64 // frameShares metric -> share
	MapHash float64            // core samples whose leaf is runtime map/hash code
}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
}

// layerOf maps one function to its layer, or "" for code that belongs to
// its caller (runtime helpers, os, the small distiq packages isa, rng,
// power, obs and metrics).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "distiq/internal/"); ok {
		pkg, sym, _ := strings.Cut(rest, ".")
		if pkg == "engine" && (strings.Contains(sym, "Store)") || sym == "entryBytes" || sym == "decodeEntry") {
			return "store"
		}
		for _, l := range profileLayers {
			if l == pkg {
				return l
			}
		}
		return ""
	}
	switch {
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "net/textproto."):
		return "net_http"
	case strings.HasPrefix(fn, "crypto/"):
		return "crypto"
	}
	return ""
}

// attribute classifies one stack (leaf first): garbage collection if a
// collector frame is anywhere on it, else the layer of the innermost
// frame that has one, else the Go runtime when the stack is all runtime
// (scheduler, network poller, timers), else other.
func attribute(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/") &&
			!strings.HasPrefix(fn, "syscall.") {
			return "other"
		}
	}
	return "runtime"
}

// isMapHash reports whether a leaf frame is Go map or hashing code.
func isMapHash(fn string) bool {
	for _, p := range []string{"runtime.map", "runtime.aeshash", "runtime.memhash", "runtime.strhash", "internal/runtime/maps."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// analyzeProfile reads a pprof CPU profile and attributes its samples.
func analyzeProfile(path string) (profileShares, error) {
	out := profileShares{Layer: map[string]float64{}, Frame: map[string]float64{}}
	raw, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return out, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return out, fmt.Errorf("profile %s: %w", path, err)
	}
	prof, err := parseProfile(data)
	if err != nil {
		return out, fmt.Errorf("profile %s: %w", path, err)
	}
	var total float64
	for _, s := range prof.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range prof.locLines[loc] {
				stack = append(stack, prof.strings[prof.funcName[fid]])
			}
		}
		w := float64(s.value)
		total += w
		out.Samples++
		layer := attribute(stack)
		out.Layer[layer] += w
		for metric, fn := range frameShares {
			for _, f := range stack {
				if f == fn {
					out.Frame[metric] += w
					break
				}
			}
		}
		if layer == "core" && len(stack) > 0 && isMapHash(stack[0]) {
			out.MapHash += w
		}
	}
	if total == 0 {
		return out, errors.New("profile has no samples")
	}
	for k := range out.Layer {
		out.Layer[k] /= total
	}
	for k := range out.Frame {
		out.Frame[k] /= total
	}
	out.MapHash /= total
	return out, nil
}

// The profile.proto subset the attribution needs.
type pprofSample struct {
	locs  []uint64 // location ids, leaf first
	value int64    // last sample value (CPU nanoseconds)
}

type pprofProfile struct {
	samples  []pprofSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

// pbReader decodes protocol-buffer wire format.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field's number and wire type, with its payload:
// the value for varints, the bytes for length-delimited fields.
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte) {
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// uints decodes a repeated integer field, packed or not.
func uints(wire int, v uint64, payload []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	p := pbReader{b: payload}
	for len(p.b) > 0 && p.err == nil {
		out = append(out, p.varint())
	}
	return out
}

func parseProfile(data []byte) (*pprofProfile, error) {
	p := &pprofProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		field, _, _, payload := r.next()
		sub := pbReader{b: payload}
		switch field {
		case 2: // Sample
			var s pprofSample
			for len(sub.b) > 0 && sub.err == nil {
				f, w, sv, sp := sub.next()
				switch f {
				case 1:
					s.locs = append(s.locs, uints(w, sv, sp)...)
				case 2:
					if vals := uints(w, sv, sp); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(sub.b) > 0 && sub.err == nil {
				f, _, lv, lp := sub.next()
				switch f {
				case 1:
					id = lv
				case 4: // Line
					line := pbReader{b: lp}
					for len(line.b) > 0 && line.err == nil {
						if lf, _, fv, _ := line.next(); lf == 1 {
							fns = append(fns, fv)
						}
					}
				}
			}
			p.locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			for len(sub.b) > 0 && sub.err == nil {
				f, _, fv, _ := sub.next()
				switch f {
				case 1:
					id = fv
				case 2:
					name = int64(fv)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		if sub.err != nil {
			return nil, sub.err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name out of string table")
		}
	}
	return p, nil
}
