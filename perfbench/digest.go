package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"distiq/internal/engine"
)

// pinnedJSON holds, per workload, the results digest of the default seed
// (seed 0): see pinnedDigests for what each one covers. Regenerate with
// `go run . --pin` from this directory after a deliberate model change.
//
//go:embed pinned.json
var pinnedJSON []byte

func pinnedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return m, nil
}

// digest hashes the simulated statistics of results in order: every
// pipeline.Stats counter, both domains' issue-logic energy breakdowns
// (per-component energy is event count times unit energy, so a changed
// power event count changes it) and the totals. The JSON encoding is
// canonical — struct fields in declaration order, map keys sorted,
// floats in shortest round-trip form — so a result decoded off the wire
// hashes exactly as the one the server computed.
func digest(results []engine.Result) string {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // engine.Result holds only numbers, strings and maps
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkUncached re-simulates job with engine.SimulateUncached — no trace
// cache, no lockstep kernel, no engine — and reports whether its digest
// matches got, the result the timed path delivered.
func checkUncached(job engine.Job, got engine.Result) (bool, error) {
	want, err := engine.SimulateUncached(job)
	if err != nil {
		return false, err
	}
	return digest([]engine.Result{want}) == digest([]engine.Result{got}), nil
}
