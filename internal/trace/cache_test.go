package trace

import (
	"sync"
	"testing"

	"distiq/internal/isa"
)

// instEqual compares every field of two instructions.
func instEqual(a, b *isa.Inst) bool { return *a == *b }

// TestReaderMatchesGenerator pins the tentpole invariant: a StreamReader
// produces isa.Inst values identical, field for field, to a fresh
// Generator's — across chunk boundaries and for both suites.
func TestReaderMatchesGenerator(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "mcf", "galgel"} {
		m := MustByName(name)
		s := newStream(m, DefaultCacheCap)
		r := s.NewReader()
		g := NewGenerator(m)
		var got, want isa.Inst
		n := growChunk*2 + 1234 // force at least two extensions
		for i := 0; i < n; i++ {
			r.Next(&got)
			g.Next(&want)
			if !instEqual(&got, &want) {
				t.Fatalf("%s inst %d: replay %+v != generated %+v", name, i, got, want)
			}
		}
	}
}

// TestStreamConcurrentReaders drives many concurrent readers over one
// stream (run under -race in CI): each must observe the exact generated
// stream while the stream is being extended under their feet.
func TestStreamConcurrentReaders(t *testing.T) {
	m := MustByName("swim")
	s := newStream(m, DefaultCacheCap)
	const readers = 8
	const n = growChunk + 4096 // every reader crosses an extension boundary

	// Reference stream, generated independently.
	ref := make([]isa.Inst, n)
	g := NewGenerator(m)
	for i := range ref {
		g.Next(&ref[i])
	}

	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := s.NewReader()
			var in isa.Inst
			for i := 0; i < n; i++ {
				r.Next(&in)
				if !instEqual(&in, &ref[i]) {
					errs <- "mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
	if s.Len() != n || s.Len() > DefaultCacheCap {
		// The stream records in whole chunks, so it may be slightly
		// ahead of the furthest reader, but never beyond a chunk.
		if s.Len() < n || s.Len() > n+growChunk {
			t.Fatalf("recorded %d insts, want about %d", s.Len(), n)
		}
	}
}

// TestStreamForkPastCap pins the recording-cap behaviour: a reader that
// outruns the cap forks a private generator and keeps producing the exact
// stream, and the stream records nothing beyond its cap.
func TestStreamForkPastCap(t *testing.T) {
	m := MustByName("gcc")
	const cap = 1000
	s := newStream(m, cap)
	r := s.NewReader()
	g := NewGenerator(m)
	var got, want isa.Inst
	for i := 0; i < 3*cap; i++ {
		r.Next(&got)
		g.Next(&want)
		if !instEqual(&got, &want) {
			t.Fatalf("inst %d (cap %d): replay diverged after fork", i, cap)
		}
	}
	if s.Len() != cap {
		t.Fatalf("recorded %d insts, want exactly the cap %d", s.Len(), cap)
	}
	if s.Forks() != 1 {
		t.Fatalf("forks = %d, want 1", s.Forks())
	}
}

// TestCacheEviction pins the limit/eviction behaviour: the cache drops
// least-recently-used streams once the recorded total exceeds its
// capacity, never the stream it is handing out, and counts evictions.
func TestCacheEviction(t *testing.T) {
	// Capacity fits one chunk, so every second materialized stream
	// evicts the least recently used one.
	c := NewCache(growChunk)
	drain := func(name string, n int) *Stream {
		s := c.Stream(MustByName(name))
		r := s.NewReader()
		var in isa.Inst
		for i := 0; i < n; i++ {
			r.Next(&in)
		}
		return s
	}

	s1 := drain("gcc", 10) // materializes one chunk
	if st := c.Stats(); st.Streams != 1 || st.Misses != 1 {
		t.Fatalf("after first stream: %+v", st)
	}
	if again := c.Stream(MustByName("gcc")); again != s1 {
		t.Fatal("second lookup did not share the stream")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("expected a hit: %+v", st)
	}

	drain("swim", 10) // second chunk: recorded total now exceeds the cap
	// The bound is enforced at lookup time: the next lookup sweeps the
	// over-capacity total and evicts the LRU stream (gcc).
	c.Stream(MustByName("swim"))
	st := c.Stats()
	if st.Streams != 1 || st.Evictions != 1 {
		t.Fatalf("after sweep: %+v", st)
	}
	if s := c.Stream(MustByName("gcc")); s == s1 {
		t.Fatal("evicted stream was handed out again")
	}

	// The evicted stream keeps serving its existing readers.
	r := s1.NewReader()
	g := NewGenerator(MustByName("gcc"))
	var got, want isa.Inst
	for i := 0; i < 10; i++ {
		r.Next(&got)
		g.Next(&want)
		if !instEqual(&got, &want) {
			t.Fatal("evicted stream corrupted")
		}
	}
}

// TestCacheDistinguishesModels: a user-built model reusing a registry
// name with different parameters must not share the registry stream.
func TestCacheDistinguishesModels(t *testing.T) {
	c := NewCache(0)
	m := MustByName("gcc")
	s1 := c.Stream(m)
	m2 := m
	m2.Seed ^= 1
	if s2 := c.Stream(m2); s2 == s1 {
		t.Fatal("models with different seeds shared a stream")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("want 2 misses, got %+v", st)
	}
}

// TestGeneratorClone pins Clone's contract from an arbitrary mid-stream
// position, including the shared immutable program.
func TestGeneratorClone(t *testing.T) {
	g := NewGenerator(MustByName("mcf"))
	var in isa.Inst
	for i := 0; i < 12345; i++ {
		g.Next(&in)
	}
	cl := g.Clone()
	var a, b isa.Inst
	for i := 0; i < 5000; i++ {
		g.Next(&a)
		cl.Next(&b)
		if !instEqual(&a, &b) {
			t.Fatalf("clone diverged at +%d", i)
		}
	}
}

// TestEnsureRecorded pins the bulk-materialization primitive: one call
// records the requested prefix (clamped to the cap) and the records are
// the generator's, bit for bit.
func TestEnsureRecorded(t *testing.T) {
	model, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(model, 5000)
	s.EnsureRecorded(3000)
	if got := s.Len(); got != 3000 {
		t.Fatalf("recorded %d insts, want 3000", got)
	}
	// Clamped to the recording cap, not beyond.
	s.EnsureRecorded(9000)
	if got := s.Len(); got != 5000 {
		t.Fatalf("recorded %d insts, want cap 5000", got)
	}
	// Shorter requests are no-ops.
	s.EnsureRecorded(100)
	if got := s.Len(); got != 5000 {
		t.Fatalf("recorded %d insts after shrink request, want 5000", got)
	}

	ref := NewGenerator(model)
	r := s.NewReader()
	var got, want isa.Inst
	for i := 0; i < 5000; i++ {
		r.Next(&got)
		ref.Next(&want)
		if got != want {
			t.Fatalf("inst %d: got %+v, want %+v", i, got, want)
		}
	}
}
