package trace

import (
	"fmt"
	"sync"
	"sync/atomic"

	"distiq/internal/isa"
)

// The dynamic instruction stream of a model is a pure function of the
// model (the pipeline fetches in architectural order — mispredictions
// stall fetch, they never fetch down a wrong path), so every job that
// simulates the same benchmark consumes the same stream, whatever its
// machine configuration. A Cache materializes each stream once, on
// demand, as a compact immutable prefix that concurrent jobs replay
// instead of re-running the generator, and evicts whole streams
// least-recently-used when the total recorded instruction count exceeds
// its capacity.
//
// Replay is bit-exact: a Reader produces isa.Inst values identical to a
// fresh Generator's, field for field (TestReaderMatchesGenerator), so
// simulation results — and therefore figure bytes and distiq-v2 job
// fingerprints — are unchanged by caching.

// record is the compact encoding of one dynamic instruction: just the
// architectural fields the generator produces (the dynamic sequence number
// is the record's index). 32 bytes versus ~180 for a full isa.Inst.
type record struct {
	pc, addr, target uint64
	src1, src2, dest int16
	class            isa.Class
	flags            uint8
}

const (
	recSrc1FP = 1 << iota
	recSrc2FP
	recDestFP
	recTaken
)

// encode captures the architectural fields of a freshly generated inst.
func encode(in *isa.Inst) record {
	var f uint8
	if in.Src1FP {
		f |= recSrc1FP
	}
	if in.Src2FP {
		f |= recSrc2FP
	}
	if in.DestFP {
		f |= recDestFP
	}
	if in.Taken {
		f |= recTaken
	}
	return record{
		pc: in.PC, addr: in.Addr, target: in.Target,
		src1: in.Src1, src2: in.Src2, dest: in.Dest,
		class: in.Class, flags: f,
	}
}

// decode fills in with the record's architectural fields (seq is the
// record's stream position) and resets the microarchitectural fields,
// exactly as Generator.Next does.
func (r *record) decode(seq uint64, in *isa.Inst) {
	in.Seq = seq
	in.PC = r.pc
	in.Class = r.class
	in.Src1, in.Src1FP = r.src1, r.flags&recSrc1FP != 0
	in.Src2, in.Src2FP = r.src2, r.flags&recSrc2FP != 0
	in.Dest, in.DestFP = r.dest, r.flags&recDestFP != 0
	in.Addr = r.addr
	in.Taken = r.flags&recTaken != 0
	in.Target = r.target
	in.ResetMicro()
}

// growChunk is how many instructions a stream records per extension; it
// amortizes the stream lock to one acquisition per chunk.
const growChunk = 8192

// Stream is one model's materialized dynamic instruction stream: an
// immutable, lazily grown prefix of records plus the generator positioned
// at its end. Any number of Readers may replay it concurrently; the first
// reader to run off the recorded end extends it (bounded by the recording
// cap), and readers past the cap fork a private generator clone.
type Stream struct {
	model Model
	cap   int

	// recs holds the committed prefix. Extensions append under mu and
	// publish atomically; readers load a snapshot and never touch the
	// slice beyond its length, so replay is lock-free.
	recs atomic.Pointer[[]record]

	mu  sync.Mutex
	gen *Generator // positioned after the committed prefix

	forks atomic.Int64 // readers that outran the cap
}

// newStream builds an empty stream for m with the given recording cap.
func newStream(m Model, cap int) *Stream {
	s := &Stream{model: m, cap: cap, gen: NewGenerator(m)}
	empty := []record{}
	s.recs.Store(&empty)
	return s
}

// Model returns the benchmark model the stream records.
func (s *Stream) Model() Model { return s.model }

// Len returns the number of instructions recorded so far.
func (s *Stream) Len() int { return len(*s.recs.Load()) }

// Forks returns how many readers have outrun the recording cap and
// switched to a private generator.
func (s *Stream) Forks() int64 { return s.forks.Load() }

// NewReader returns a reader positioned at the start of the stream.
func (s *Stream) NewReader() *StreamReader {
	return &StreamReader{s: s, recs: *s.recs.Load()}
}

// extend makes the record at index pos available: it returns a snapshot
// containing it, or, when the stream's recording cap has been reached, a
// private generator clone positioned at pos for the caller to continue
// on (pos == recorded length in that case, since readers consume
// sequentially from zero).
func (s *Stream) extend(pos int) ([]record, *Generator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := *s.recs.Load()
	if pos < len(recs) {
		return recs, nil // another reader already extended past pos
	}
	if len(recs) >= s.cap {
		s.forks.Add(1)
		return recs, s.gen.Clone()
	}
	n := growChunk
	if rem := s.cap - len(recs); n > rem {
		n = rem
	}
	var in isa.Inst
	for i := 0; i < n; i++ {
		s.gen.Next(&in)
		recs = append(recs, encode(&in))
	}
	s.recs.Store(&recs)
	return recs, nil
}

// EnsureRecorded extends the recorded prefix to at least n instructions
// (clamped to the recording cap) in one pass under one lock acquisition,
// so a caller can pay a stream's generation cost up front instead of
// through its readers' incremental chunked extensions.
func (s *Stream) EnsureRecorded(n int) {
	if n > s.cap {
		n = s.cap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := *s.recs.Load()
	if len(recs) >= n {
		return
	}
	var in isa.Inst
	for len(recs) < n {
		s.gen.Next(&in)
		recs = append(recs, encode(&in))
	}
	s.recs.Store(&recs)
}

// Reader replays a stream from the beginning. It implements the
// pipeline's Fetcher interface and is not safe for concurrent use (use
// one Reader per pipeline); distinct Readers of one Stream are safe
// concurrently.
type StreamReader struct {
	s    *Stream
	recs []record   // committed snapshot
	pos  int        // next stream index to deliver
	gen  *Generator // non-nil once the reader has outrun the cap
}

// Next fills in with the next dynamic instruction, exactly as the
// model's Generator would.
func (r *StreamReader) Next(in *isa.Inst) {
	if r.gen != nil {
		r.gen.Next(in)
		return
	}
	if r.pos >= len(r.recs) {
		r.recs, r.gen = r.s.extend(r.pos)
		if r.gen != nil {
			r.gen.Next(in)
			return
		}
	}
	r.recs[r.pos].decode(uint64(r.pos), in)
	r.pos++
}

// DefaultCacheCap is the default total recording capacity of a Cache, in
// instructions — about 128 MiB of records at 32 bytes each, enough to
// hold every benchmark of the paper's evaluation at the default
// experiment lengths simultaneously. The bound is soft: it is enforced
// at Stream() lookups, each stream admitted under it may individually
// grow to the full capacity before the next lookup trims the total, and
// evicted streams stay resident while active readers replay them.
const DefaultCacheCap = 4 << 20

// CacheStats is a snapshot of a Cache's behaviour counters. The JSON
// keys are part of cmd/iqbench's stable BENCH_*.json schema.
type CacheStats struct {
	// Hits and Misses count Stream lookups that found, respectively
	// created, a stream.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts streams dropped to respect the capacity.
	Evictions int64 `json:"evictions"`
	// Streams and RecordedInsts describe current residency.
	Streams       int `json:"streams"`
	RecordedInsts int `json:"recorded_insts"`
	// Forks counts readers (across all current streams) that outran the
	// per-stream recording cap and fell back to private generation.
	Forks int64 `json:"forks"`
}

// Cache materializes model streams on demand and bounds their total
// recorded size. All methods are safe for concurrent use. The zero value
// is not usable; use NewCache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	tick    uint64

	hits, misses, evictions int64
}

type cacheEntry struct {
	s       *Stream
	lastUse uint64
}

// NewCache returns a Cache holding at most maxInsts recorded instructions
// across all streams (a soft bound: streams admitted while under the
// bound may still grow to it). maxInsts <= 0 selects DefaultCacheCap.
// Each stream's own recording cap is the cache capacity; a single run
// longer than that replays the recorded prefix and generates the rest.
func NewCache(maxInsts int) *Cache {
	if maxInsts <= 0 {
		maxInsts = DefaultCacheCap
	}
	return &Cache{cap: maxInsts, entries: make(map[string]*cacheEntry)}
}

// modelKey is the structural identity of a model: two models with equal
// keys generate identical streams. Names alone would suffice for the
// built-in benchmark registry, but user-constructed models may reuse a
// name with different parameters, so stream caching keys on the full
// structure.
func modelKey(m Model) string {
	return fmt.Sprintf("%s|%d|%d|%v", m.Name, m.Suite, m.Seed, m.Loops)
}

// Stream returns the (possibly shared) stream for m, creating it on first
// use and evicting least-recently-used other streams while the total
// recorded size exceeds the capacity.
func (c *Cache) Stream(m Model) *Stream {
	key := modelKey(m)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &cacheEntry{s: newStream(m, c.cap)}
		c.entries[key] = e
	}
	e.lastUse = c.tick
	c.evictLocked(key)
	return e.s
}

// Reader returns a new reader over m's shared stream.
func (c *Cache) Reader(m Model) *StreamReader { return c.Stream(m).NewReader() }

// evictLocked drops least-recently-used streams (never keep) until the
// total recorded size fits the capacity. Active readers of an evicted
// stream keep replaying it unharmed; the cache just stops handing it out.
func (c *Cache) evictLocked(keep string) {
	for {
		total := 0
		for _, e := range c.entries {
			total += e.s.Len()
		}
		if total <= c.cap {
			return
		}
		victim := ""
		var oldest uint64
		for k, e := range c.entries {
			if k == keep {
				continue
			}
			if victim == "" || e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		if victim == "" {
			return // only keep remains; its own cap bounds it
		}
		delete(c.entries, victim)
		c.evictions++
	}
}

// Stats returns a snapshot of the cache's counters and residency.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Streams: len(c.entries),
	}
	for _, e := range c.entries {
		st.RecordedInsts += e.s.Len()
		st.Forks += e.s.Forks()
	}
	return st
}
