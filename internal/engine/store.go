package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Store is the filesystem ResultStore: one JSON file per result under a
// flat directory, named by the job's content-address fingerprint, so any
// process computing the same job produces (and finds) the same file.
//
// Writes go through a temp file and an atomic rename, so concurrent
// engines sharing a directory never observe torn entries; unreadable or
// stale-format files are treated as misses and overwritten.
type Store struct {
	dir string
}

// tmpStaleAfter is how old an orphaned temp file must be before the
// startup sweep removes it. A temp file is normally renamed away within
// milliseconds of creation; one this old was abandoned by a crashed
// writer. The margin keeps the sweep safe for concurrent processes
// sharing a directory: a live writer's temp file is never this old.
const tmpStaleAfter = time.Hour

// NewStore returns a store rooted at dir. The directory is created on
// first Put. If the directory already exists, stale temp files orphaned
// by crashed writers are swept away (best-effort) so a crash can never
// leak disk space indefinitely.
func NewStore(dir string) *Store {
	s := &Store{dir: dir}
	s.sweepStaleTemps()
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// sweepStaleTemps removes temp files older than tmpStaleAfter. Put's
// CreateTemp pattern is "." + fp + ".tmp*"; a crash between CreateTemp
// and Rename orphans such a file. Recent temps are left alone — they may
// belong to a live writer in another process.
func (s *Store) sweepStaleTemps() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tmpStaleAfter)
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
			continue
		}
		fi, err := de.Info()
		if err != nil || fi.ModTime().After(cutoff) {
			continue
		}
		os.Remove(filepath.Join(s.dir, name))
	}
}

// entry is the on-disk format: a version tag plus the job identity for
// auditability (the filename alone is an opaque hash) and validation.
type entry struct {
	Version      int    `json:"version"`
	Benchmark    string `json:"benchmark"`
	Config       string `json:"config"`
	Machine      string `json:"machine"`
	Warmup       uint64 `json:"warmup"`
	Instructions uint64 `json:"instructions"`
	Result       Result `json:"result"`
}

func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp+".json")
}

// Get loads the result addressed by fp, validating that the entry's
// version and recorded identity match the requesting job. Any mismatch or
// read/decode failure is a cache miss.
func (s *Store) Get(fp string, job Job) (Result, bool) {
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		return Result{}, false
	}
	return decodeEntry(data, job)
}

// Has reports whether an entry file exists for fp.
func (s *Store) Has(fp string) bool {
	_, err := os.Stat(s.path(fp))
	return err == nil
}

// Raw returns the exact stored entry bytes for fp.
func (s *Store) Raw(fp string) ([]byte, error) {
	return os.ReadFile(s.path(fp))
}

// Close is a no-op: every Put is already durable on return.
func (s *Store) Close() error { return nil }

// entryBytes renders the canonical on-disk encoding of a job's result —
// the exact bytes Put writes. Manifest leaf hashing shares it, so a
// manifest built in memory verifies against the raw store files.
func entryBytes(job Job, r Result) ([]byte, error) {
	ent := entry{
		Version:      storeVersion,
		Benchmark:    job.Bench,
		Config:       job.Config.Name,
		Machine:      job.machineCanon(),
		Warmup:       job.Opt.Warmup,
		Instructions: job.Opt.Instructions,
		Result:       r,
	}
	return json.MarshalIndent(ent, "", " ")
}

// Put persists a result under fp atomically (temp file + rename).
func (s *Store) Put(fp string, job Job, r Result) error {
	data, err := entryBytes(job, r)
	if err != nil {
		return fmt.Errorf("engine: encode result: %w", err)
	}
	return s.PutRaw(fp, data)
}

// PutRaw persists pre-encoded entry bytes under fp atomically.
func (s *Store) PutRaw(fp string, data []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("engine: create store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "."+fp+".tmp*")
	if err != nil {
		return fmt.Errorf("engine: store temp: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("engine: store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("engine: store close: %w", err)
	}
	if err := os.Rename(name, s.path(fp)); err != nil {
		os.Remove(name)
		return fmt.Errorf("engine: store rename: %w", err)
	}
	return nil
}

// compile-time interface checks.
var (
	_ ResultStore = (*Store)(nil)
	_ RawPutter   = (*Store)(nil)
)
