package engine

import "encoding/json"

// ResultStore is the persistent result cache behind the engine: a
// content-addressed map from a job's distiq-v2 fingerprint (Job.Fingerprint)
// to the canonical JSON entry for its result. The engine consults it before
// simulating and persists fresh results through it, so any backend that
// honors the contract below is interchangeable — the same warm-rerun,
// single-flight and manifest semantics hold over a local directory
// (Store) and an in-process map (MemStore).
//
// Contract (pinned for every implementation by the shared conformance
// suite in conformance_test.go):
//
//   - Get validates the stored entry against the requesting job: a missing
//     entry, a stale format version, an identity mismatch, or a torn or
//     otherwise undecodable entry is a miss (false), never an error.
//   - Put persists the exact canonical entry bytes (entryBytes) so that a
//     Merkle manifest built in memory verifies byte-for-byte against the
//     stored entries. Put is idempotent: concurrent Puts of the same
//     fingerprint are safe and leave one valid entry.
//   - Has reports entry existence without validating its contents.
//   - Raw returns the exact stored entry bytes — the enumeration hook
//     manifest verification hashes (Manifest.VerifyIn); it reports an
//     error for absent entries.
//   - Close flushes buffered state and releases resources; a store must
//     be fully readable by other handles over the same backing state
//     after Close returns.
//
// All methods must be safe for concurrent use.
type ResultStore interface {
	Get(fp string, job Job) (Result, bool)
	Put(fp string, job Job, r Result) error
	Has(fp string) bool
	Raw(fp string) ([]byte, error)
	Close() error
}

// RawPutter is optionally implemented by backends that can store
// pre-encoded canonical entry bytes directly. The conformance suite
// uses it to plant stale-version and torn entries.
type RawPutter interface {
	PutRaw(fp string, data []byte) error
}

// decodeEntry decodes canonical entry bytes and validates them against
// the requesting job's identity: version, benchmark, configuration name,
// applied machine and run lengths must all match. Any decode failure or
// mismatch is a miss — the shared read-side semantics of every backend.
func decodeEntry(data []byte, job Job) (Result, bool) {
	var ent entry
	if err := json.Unmarshal(data, &ent); err != nil {
		return Result{}, false
	}
	if ent.Version != storeVersion ||
		ent.Benchmark != job.Bench || ent.Config != job.Config.Name ||
		ent.Machine != job.machineCanon() ||
		ent.Warmup != job.Opt.Warmup || ent.Instructions != job.Opt.Instructions {
		return Result{}, false
	}
	return ent.Result, true
}
