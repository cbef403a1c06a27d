package engine

import (
	"fmt"
	"sync"
)

// MemStore is the in-memory ResultStore: a goroutine-safe map from
// fingerprint to canonical entry bytes. It is the reference
// implementation of the ResultStore contract and the tests' hermetic
// store, not a store a command offers: it holds the same canonical
// bytes the filesystem Store writes, so manifests verify against it
// byte-for-byte. A MemStore is process-local: "cross-process" reuse
// means sharing one MemStore value between engines.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// Get loads and validates the entry for fp; any mismatch is a miss.
func (s *MemStore) Get(fp string, job Job) (Result, bool) {
	s.mu.RLock()
	data, ok := s.blobs[fp]
	s.mu.RUnlock()
	if !ok {
		return Result{}, false
	}
	return decodeEntry(data, job)
}

// Put stores the canonical entry bytes for (job, r) under fp.
func (s *MemStore) Put(fp string, job Job, r Result) error {
	data, err := entryBytes(job, r)
	if err != nil {
		return fmt.Errorf("engine: encode result: %w", err)
	}
	return s.PutRaw(fp, data)
}

// PutRaw stores pre-encoded entry bytes under fp.
func (s *MemStore) PutRaw(fp string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.blobs[fp] = cp
	s.mu.Unlock()
	return nil
}

// Has reports whether an entry exists for fp.
func (s *MemStore) Has(fp string) bool {
	s.mu.RLock()
	_, ok := s.blobs[fp]
	s.mu.RUnlock()
	return ok
}

// Raw returns the exact stored entry bytes for fp.
func (s *MemStore) Raw(fp string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.blobs[fp]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: memstore: no entry for %s", fp)
	}
	return append([]byte(nil), data...), nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// compile-time interface checks.
var (
	_ ResultStore = (*MemStore)(nil)
	_ RawPutter   = (*MemStore)(nil)
)
