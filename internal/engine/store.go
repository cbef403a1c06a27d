package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"distiq/internal/jsonwire"
)

// Store is the filesystem ResultStore: one JSON file per result under a
// flat directory, named by the job's content-address fingerprint, so any
// process computing the same job produces (and finds) the same file.
//
// Writes go through a temp file and an atomic rename, so concurrent
// engines sharing a directory never observe torn entries; unreadable or
// stale-format files are treated as misses and overwritten. Nothing is
// synced to disk: after a system crash an entry may be torn or empty,
// Get reads it as a miss, and a later Put rewrites it.
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
// decodeEntry reads it; entryBytes writes its bytes without reflection.
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

// Close is a no-op: a Put holds no file open past its return, and its
// entry is then visible whole to every other handle on the directory.
func (s *Store) Close() error { return nil }

// entryBytes renders the canonical on-disk encoding of a job's result —
// the exact bytes Put writes, which are json.MarshalIndent's of the
// job's entry with a one-space indent. Manifest leaf hashing shares it,
// so a manifest built in memory verifies against the raw store files.
// The entry is appended compact without reflection, then indented once;
// the compact form fits a stack buffer, so only the indented bytes it
// returns are allocated.
func entryBytes(job Job, r Result) ([]byte, error) {
	var buf [2048]byte
	b := append(buf[:0], `{"version":`...)
	b = strconv.AppendInt(b, storeVersion, 10)
	b = append(b, `,"benchmark":`...)
	b = jsonwire.AppendString(b, job.Bench)
	b = append(b, `,"config":`...)
	b = jsonwire.AppendString(b, job.Config.Name)
	b = append(b, `,"machine":`...)
	b = jsonwire.AppendString(b, job.machineCanon())
	b = append(b, `,"warmup":`...)
	b = strconv.AppendUint(b, job.Opt.Warmup, 10)
	b = append(b, `,"instructions":`...)
	b = strconv.AppendUint(b, job.Opt.Instructions, 10)
	b = append(b, `,"result":`...)
	b, err := r.AppendJSON(b)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, append(b, '}'), "", " "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Put persists a result under fp atomically (temp file + rename).
func (s *Store) Put(fp string, job Job, r Result) error {
	data, err := entryBytes(job, r)
	if err != nil {
		return fmt.Errorf("engine: encode result: %w", err)
	}
	return s.PutRaw(fp, data)
}

// PutRaw persists pre-encoded entry bytes under fp atomically, without
// syncing (see Store).
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

// OpenStore returns NewStore(DIR) for the spec "fs:DIR" and rejects
// every other spec.
//
// Deprecated: OpenStore exists only because the benchmark harness still
// calls it; use NewStore. It goes away when the benchmark is next
// redefined.
func OpenStore(spec string) (ResultStore, error) {
	dir, ok := strings.CutPrefix(spec, "fs:")
	if !ok || dir == "" {
		return nil, fmt.Errorf("engine: store spec %q: want fs:DIR", spec)
	}
	return NewStore(dir), nil
}
