package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// Sweep manifests are the integrity artifact of a completed sweep: a
// deterministic Merkle tree over the grid points' content-addressed
// result entries. The leaf for point i is the SHA-256 of the exact
// canonical bytes the persistent store writes for that job (see
// entryBytes), domain-separated RFC 6962 style — leaf = H(0x00 || data),
// inner = H(0x01 || left || right), with an odd trailing node promoted
// unchanged to the next level. Leaves are taken in grid order, so two
// runs of the same grid — any machine, any parallelism — produce the
// same root, and any tampered, truncated or substituted stored result
// changes it.

const (
	// ManifestVersion tags the manifest JSON layout.
	ManifestVersion = "distiq-manifest-v1"
	// ManifestAlgo names the hash construction used for leaves and
	// inner nodes.
	ManifestAlgo = "sha256-rfc6962"
)

// ManifestLeaf is one grid point's entry in a sweep manifest.
type ManifestLeaf struct {
	// Index is the point's position in grid order.
	Index int `json:"index"`
	// Benchmark and Config identify the point for human readers; the
	// fingerprint alone is an opaque hash.
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	// Fingerprint is the job's store content address (the stored file
	// is <fingerprint>.json).
	Fingerprint string `json:"fingerprint"`
	// Hash is the hex leaf hash: SHA-256 over 0x00 followed by the
	// canonical store-entry bytes.
	Hash string `json:"hash"`
}

// Manifest is the tamper-evident summary of one completed sweep.
type Manifest struct {
	Version string `json:"version"`
	// Name labels the sweep (a sweep ID or spec name); informational.
	Name   string         `json:"name,omitempty"`
	Points int            `json:"points"`
	Algo   string         `json:"algo"`
	Root   string         `json:"root"`
	Leaves []ManifestLeaf `json:"leaves"`
}

// computeLeaf returns the manifest leaf hash of a job's result, encoding
// the result's canonical store entry. Jobs with Custom schemes have no
// content address, so no leaf.
func computeLeaf(job Job, r Result) (leaf [sha256.Size]byte, err error) {
	if !job.persistable() {
		return leaf, fmt.Errorf("job %s/%s has no content address (custom scheme)", job.Bench, job.Config.Name)
	}
	data, err := entryBytes(job, r)
	if err != nil {
		return leaf, fmt.Errorf("encode manifest leaf: %w", err)
	}
	return leafSum(data), nil
}

// leafSum hashes raw canonical entry bytes into a leaf hash.
func leafSum(data []byte) (sum [sha256.Size]byte) {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	h.Sum(sum[:0])
	return sum
}

// hashLeafBytes hashes raw canonical entry bytes into a hex leaf hash.
func hashLeafBytes(data []byte) string {
	sum := leafSum(data)
	return hex.EncodeToString(sum[:])
}

// merkleRoot folds leaf-level hashes into the hex root. An empty tree
// has the conventional root SHA-256 of the empty string; an odd node at
// any level is promoted unchanged.
func merkleRoot(level [][]byte) string {
	if len(level) == 0 {
		sum := sha256.Sum256(nil)
		return hex.EncodeToString(sum[:])
	}
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			h := sha256.New()
			h.Write([]byte{0x01})
			h.Write(level[i])
			h.Write(level[i+1])
			next = append(next, h.Sum(nil))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return hex.EncodeToString(level[0])
}

// BuildManifest assembles the manifest for a completed sweep: jobs and
// results are the grid's points in grid order. Every job must be
// content-addressable (no Custom schemes). It encodes and hashes every
// point's store entry; Engine.Manifest builds the same manifest from
// leaves the engine keeps.
func BuildManifest(name string, jobs []Job, results []Result) (*Manifest, error) {
	return buildManifest(name, jobs, results, func(i int) (fp, leaf [sha256.Size]byte, err error) {
		leaf, err = computeLeaf(jobs[i], results[i])
		return jobs[i].digest(), leaf, err
	})
}

// Manifest is BuildManifest over results this engine has just delivered
// for jobs, in grid order; keys are the jobs' digests, as ResultStream
// returns them, and a persistable job's digest is its fingerprint. A
// job's leaf hash is computed the first time a manifest names it and
// kept in its memory entry, so a point the engine has seen before costs
// a map lookup. A job with no memory entry (such as a result adapted
// from an equivalent job's run and never persisted) has its leaf
// computed and not kept. The manifest equals BuildManifest's as long as
// results are the engine's own for jobs.
func (e *Engine) Manifest(name string, jobs []Job, keys []Digest, results []Result) (*Manifest, error) {
	if len(keys) != len(jobs) {
		return nil, fmt.Errorf("engine: manifest: %d jobs but %d keys", len(jobs), len(keys))
	}
	memo := make([]leafMemo, len(jobs))
	e.mu.Lock()
	for i, key := range keys {
		if ent := e.memory[key]; ent != nil {
			memo[i] = ent.leaf
		}
	}
	e.mu.Unlock()
	var fresh []int
	m, err := buildManifest(name, jobs, results, func(i int) (fp, leaf [sha256.Size]byte, err error) {
		if !memo[i].ok {
			if leaf, err = computeLeaf(jobs[i], results[i]); err != nil {
				return fp, leaf, err
			}
			memo[i] = leafMemo{leaf: leaf, ok: true}
			fresh = append(fresh, i)
		}
		return keys[i], memo[i].leaf, nil
	})
	if err != nil {
		return nil, err
	}
	if len(fresh) > 0 {
		e.mu.Lock()
		for _, i := range fresh {
			if ent := e.memory[keys[i]]; ent != nil {
				ent.leaf = memo[i]
			}
		}
		e.mu.Unlock()
	}
	return m, nil
}

// buildManifest assembles a manifest from the fingerprint and leaf hash
// leafOf returns for each point in grid order.
func buildManifest(name string, jobs []Job, results []Result, leafOf func(i int) (fp, leaf [sha256.Size]byte, err error)) (*Manifest, error) {
	if len(jobs) != len(results) {
		return nil, fmt.Errorf("engine: manifest: %d jobs but %d results", len(jobs), len(results))
	}
	m := &Manifest{
		Version: ManifestVersion,
		Name:    name,
		Points:  len(jobs),
		Algo:    ManifestAlgo,
		Leaves:  make([]ManifestLeaf, len(jobs)),
	}
	sums := make([][sha256.Size]byte, len(jobs))
	hashes := make([][]byte, len(jobs))
	for i, job := range jobs {
		fp, sum, err := leafOf(i)
		if err != nil {
			return nil, fmt.Errorf("engine: manifest point %d: %w", i, err)
		}
		sums[i] = sum
		hashes[i] = sums[i][:]
		m.Leaves[i] = ManifestLeaf{
			Index:       i,
			Benchmark:   job.Bench,
			Config:      job.Config.Name,
			Fingerprint: hex.EncodeToString(fp[:]),
			Hash:        hex.EncodeToString(sum[:]),
		}
	}
	m.Root = merkleRoot(hashes)
	return m, nil
}

// Check validates the manifest's internal consistency: version and
// algorithm tags, leaf indices and point count, hash syntax, and that
// the leaves fold to the recorded root. It does not touch any store —
// see VerifyIn for that.
func (m *Manifest) Check() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("engine: manifest version %q, want %q", m.Version, ManifestVersion)
	}
	if m.Algo != ManifestAlgo {
		return fmt.Errorf("engine: manifest algorithm %q, want %q", m.Algo, ManifestAlgo)
	}
	if m.Points != len(m.Leaves) {
		return fmt.Errorf("engine: manifest declares %d points but has %d leaves", m.Points, len(m.Leaves))
	}
	hashes := make([][]byte, len(m.Leaves))
	for i, leaf := range m.Leaves {
		if leaf.Index != i {
			return fmt.Errorf("engine: manifest leaf %d has index %d (leaves must be in grid order)", i, leaf.Index)
		}
		raw, err := hex.DecodeString(leaf.Hash)
		if err != nil || len(raw) != sha256.Size {
			return fmt.Errorf("engine: manifest leaf %d: malformed hash %q", i, leaf.Hash)
		}
		if len(leaf.Fingerprint) != 2*sha256.Size {
			return fmt.Errorf("engine: manifest leaf %d: malformed fingerprint %q", i, leaf.Fingerprint)
		}
		hashes[i] = raw
	}
	if root := merkleRoot(hashes); root != m.Root {
		return fmt.Errorf("engine: manifest root %s does not match leaves (computed %s)", m.Root, root)
	}
	return nil
}

// VerifyIn checks the manifest offline against a result store, such as
// NewStore(dir) for a distiq-v2 store directory: every leaf's stored
// entry (ResultStore.Raw) must hash back to its recorded leaf hash (over
// the raw bytes — any single flipped byte fails), and the leaves must
// fold to the recorded root. The first discrepancy is reported with its
// grid index and fingerprint.
func (m *Manifest) VerifyIn(store ResultStore) error {
	if err := m.Check(); err != nil {
		return err
	}
	for _, leaf := range m.Leaves {
		data, err := store.Raw(leaf.Fingerprint)
		if err != nil {
			return fmt.Errorf("engine: manifest point %d (%s/%s): %w", leaf.Index, leaf.Benchmark, leaf.Config, err)
		}
		if got := hashLeafBytes(data); got != leaf.Hash {
			return fmt.Errorf("engine: manifest point %d (%s/%s): store entry %s does not match manifest: hash %s, want %s",
				leaf.Index, leaf.Benchmark, leaf.Config, leaf.Fingerprint+".json", got, leaf.Hash)
		}
	}
	return nil
}

// JSON renders the manifest as the file LoadManifest reads: AppendJSON's
// bytes, indented one space per level as json.MarshalIndent indents them.
func (m *Manifest) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, m.AppendJSON(nil), "", " "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadManifest reads and validates a manifest JSON file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: read manifest: %w", err)
	}
	var m Manifest
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("engine: parse manifest %s: %w", path, err)
	}
	if err := m.Check(); err != nil {
		return nil, err
	}
	return &m, nil
}
