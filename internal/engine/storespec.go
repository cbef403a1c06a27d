package engine

import (
	"fmt"
	"strings"
)

// Store specs are the one-line backend selection syntax shared by every
// front end's -store flag and by distiqd:
//
//	fs:DIR   filesystem store rooted at DIR
//	mem      in-memory store (process-local)
//
// The legacy -cache-dir DIR flag is an alias for fs:DIR.

// ParseStoreSpec validates a store spec's syntax and returns the fs
// directory it names, or "" for mem (so front ends can run their
// directory checks before anything opens). An empty spec is valid and
// names no store.
func ParseStoreSpec(spec string) (fsDir string, err error) {
	switch {
	case spec == "", spec == "mem":
		return "", nil
	case strings.HasPrefix(spec, "fs:"):
		dir := strings.TrimPrefix(spec, "fs:")
		if dir == "" {
			return "", fmt.Errorf("store spec %q: fs: needs a directory", spec)
		}
		return dir, nil
	}
	return "", fmt.Errorf("unknown store spec %q (want fs:DIR or mem)", spec)
}

// OpenStore builds the ResultStore a spec names. An empty spec returns
// nil (no persistent store). The caller owns the returned store and must
// Close it.
func OpenStore(spec string) (ResultStore, error) {
	dir, err := ParseStoreSpec(spec)
	switch {
	case err != nil:
		return nil, err
	case dir != "":
		return NewStore(dir), nil
	case spec == "mem":
		return NewMemStore(), nil
	}
	return nil, nil
}
