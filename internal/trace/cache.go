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
// demand, as a compact immutable tape that concurrent jobs replay
// instead of re-running the generator, and evicts whole streams
// least-recently-used when the total recorded instruction count exceeds
// its capacity.
//
// Replay is bit-exact: a Reader produces isa.Inst values identical to a
// fresh Generator's, field for field (TestReaderMatchesGenerator), so
// simulation results — and therefore figure bytes and distiq-v2 job
// fingerprints — are unchanged by caching.
//
// No simulation path replays a Cache any more: a Generator walks the
// static program as fast as a reader replays its draws, so every engine
// job fetches from a generator of its own and keeps no stream alive
// after it ends. The Cache stays only for the benchmark harness's
// layer cases.

// tape is the compact encoding of a recorded prefix. The stream is a walk
// of the model's immutable static program whose only inputs are its
// random draws, so a tape keeps just those, in stream order: one byte per
// random branch draw (1 when it fell below its bound) and one word per
// random address (its 8-byte-aligned offset shifted right by 3, which
// Model.Validate keeps within 32 bits). A reader redoes the walk itself
// (walk.step) and takes each draw from the tape. A tape is immutable once
// published: extensions build a new one over the same (appended) arrays,
// so a reader's snapshot always holds every draw of its n instructions.
type tape struct {
	n    int      // instructions recorded
	br   []byte   // random branch draws
	offs []uint32 // random address offsets >> 3
}

// recorder draws from a generator and appends every draw to a tape.
type recorder struct {
	g *Generator
	t *tape
}

func (r *recorder) below(p float64) bool {
	b := r.g.below(p)
	var v byte
	if b {
		v = 1
	}
	r.t.br = append(r.t.br, v)
	return b
}

func (r *recorder) offset(hotMask, wsMask uint64) uint64 {
	off := r.g.offset(hotMask, wsMask)
	r.t.offs = append(r.t.offs, uint32(off>>3))
	return off
}

// growChunk is how many instructions a stream records per extension; it
// amortizes the stream lock to one acquisition per chunk.
const growChunk = 8192

// Stream is one model's materialized dynamic instruction stream: an
// immutable, lazily grown tape plus the generator positioned at its end.
// Any number of Readers may replay it concurrently; the first reader to
// run off the recorded end extends it (bounded by the recording cap), and
// readers past the cap fork a private generator clone.
//
// Deprecated: Stream exists only because the benchmark harness still
// uses it; it goes away when the benchmark is next redefined.
type Stream struct {
	model Model
	cap   int

	// tape holds the committed prefix. Extensions append under mu and
	// publish atomically; readers load a snapshot and never touch the
	// arrays beyond its lengths, so replay is lock-free.
	tape atomic.Pointer[tape]

	mu  sync.Mutex
	gen *Generator // positioned after the committed prefix

	forks atomic.Int64 // readers that outran the cap
}

// newStream builds an empty stream for m with the given recording cap.
func newStream(m Model, cap int) *Stream {
	s := &Stream{model: m, cap: cap, gen: NewGenerator(m)}
	s.tape.Store(&tape{})
	return s
}

// Model returns the benchmark model the stream records.
func (s *Stream) Model() Model { return s.model }

// Len returns the number of instructions recorded so far.
func (s *Stream) Len() int { return s.tape.Load().n }

// Forks returns how many readers have outrun the recording cap and
// switched to a private generator.
func (s *Stream) Forks() int64 { return s.forks.Load() }

// NewReader returns a reader positioned at the start of the stream.
func (s *Stream) NewReader() *StreamReader {
	return &StreamReader{walk: newWalk(s.gen.prog), s: s, tp: *s.tape.Load()}
}

// recordLocked runs the generator on for n instructions, appending their
// draws to the committed tape, and publishes the result. s.mu is held.
func (s *Stream) recordLocked(n int) tape {
	t := *s.tape.Load()
	rec := &recorder{g: s.gen, t: &t}
	for i := 0; i < n; i++ {
		s.gen.step(rec)
	}
	t.n += n
	s.tape.Store(&t)
	return t
}

// extend makes the instruction at index pos available: it returns a
// snapshot containing it, or, when the stream's recording cap has been
// reached, a private generator clone positioned at pos for the caller to
// continue on (pos == recorded length in that case, since readers consume
// sequentially from zero).
func (s *Stream) extend(pos int) (tape, *Generator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.tape.Load()
	if pos < t.n {
		return t, nil // another reader already extended past pos
	}
	if t.n >= s.cap {
		s.forks.Add(1)
		return t, s.gen.Clone()
	}
	return s.recordLocked(min(growChunk, s.cap-t.n)), nil
}

// EnsureRecorded extends the recorded prefix to at least n instructions
// (clamped to the recording cap) in one pass under one lock acquisition,
// so a caller can pay a stream's generation cost up front instead of
// through its readers' incremental chunked extensions.
func (s *Stream) EnsureRecorded(n int) {
	n = min(n, s.cap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if have := s.Len(); have < n {
		s.recordLocked(n - have)
	}
}

// Reader replays a stream from the beginning. It implements the
// pipeline's Fetcher interface and is not safe for concurrent use (use
// one Reader per pipeline); distinct Readers of one Stream are safe
// concurrently.
//
// Deprecated: StreamReader exists only because the benchmark harness
// still uses it; it goes away when the benchmark is next redefined.
type StreamReader struct {
	walk
	s   *Stream
	tp  tape       // committed snapshot
	br  int        // index in tp.br of the next branch draw
	off int        // index in tp.offs of the next address draw
	gen *Generator // non-nil once the reader has outrun the cap
}

// Next fills in with the next dynamic instruction, exactly as the
// model's Generator would.
func (r *StreamReader) Next(in *isa.Inst) {
	if r.gen == nil && int(r.seq) >= r.tp.n {
		r.tp, r.gen = r.s.extend(int(r.seq))
	}
	if r.gen != nil {
		r.gen.Next(in)
		return
	}
	r.next(in, r)
}

// below implements draws from the tape.
func (r *StreamReader) below(float64) bool {
	b := r.tp.br[r.br] != 0
	r.br++
	return b
}

// offset implements draws from the tape.
func (r *StreamReader) offset(_, _ uint64) uint64 {
	off := uint64(r.tp.offs[r.off]) << 3
	r.off++
	return off
}

// DefaultCacheCap is the default total recording capacity of a Cache, in
// instructions — at most 4.2 MiB of tape at the registered benchmarks'
// 0.00–1.05 bytes per instruction, enough to hold every benchmark of the
// paper's evaluation at the default experiment lengths simultaneously.
// The bound
// is soft: it is enforced at Stream() lookups, each stream admitted under
// it may individually grow to the full capacity before the next lookup
// trims the total, and evicted streams stay resident while active readers
// replay them.
//
// Deprecated: DefaultCacheCap exists only because the benchmark
// harness still uses it; it goes away when the benchmark is next
// redefined.
const DefaultCacheCap = 4 << 20

// CacheStats is a snapshot of a Cache's behaviour counters.
//
// Deprecated: CacheStats exists only because the benchmark harness still
// reads it; it goes away when the benchmark is next redefined.
type CacheStats struct {
	// Hits and Misses count Stream lookups that found, respectively
	// created, a stream.
	Hits   int64
	Misses int64
	// Evictions counts streams dropped to respect the capacity.
	Evictions int64
	// Streams and RecordedInsts describe current residency.
	Streams       int
	RecordedInsts int
	// Forks counts readers (across all current streams) that outran the
	// per-stream recording cap and fell back to private generation.
	Forks int64
}

// Cache materializes model streams on demand and bounds their total
// recorded size. All methods are safe for concurrent use. The zero value
// is not usable; use NewCache.
//
// Deprecated: Cache exists only because the benchmark harness still
// uses it; it goes away when the benchmark is next redefined. Simulations
// fetch from a Generator of their own.
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
//
// Deprecated: NewCache exists only because the benchmark harness still
// calls it; it goes away when the benchmark is next redefined.
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
