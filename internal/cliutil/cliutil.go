// Package cliutil validates command-line inputs shared by the iq*
// commands and the distiqd service, so every front end rejects bad
// engine knobs with the same clear error instead of a panic or a silent
// zero-value run.
//
// The package also carries the shared error taxonomy: BadInput marks an
// error as caused by the caller's input (bad flags, malformed or invalid
// specs) rather than by the system, and every front end agrees on how to
// surface that distinction — CLIs exit with status 2 (via ExitCode), the
// HTTP service answers 400 instead of 500. Interruption is part of the
// same taxonomy: an error chain carrying context.Canceled (a Ctrl-C
// propagated through a context-aware sweep) exits 130, the shell
// convention for SIGINT.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"distiq/internal/engine"
)

// badInput wraps an error to mark it as caused by invalid user input.
type badInput struct{ err error }

func (b badInput) Error() string { return b.err.Error() }
func (b badInput) Unwrap() error { return b.err }

// BadInput marks err as caused by invalid user input; nil stays nil.
func BadInput(err error) error {
	if err == nil {
		return nil
	}
	return badInput{err}
}

// IsBadInput reports whether any error in the chain is marked BadInput.
func IsBadInput(err error) bool {
	var b badInput
	return errors.As(err, &b)
}

// ExitInterrupted is the conventional exit status of a process stopped
// by SIGINT (128 + signal 2).
const ExitInterrupted = 130

// ExitCode maps an error to the conventional process exit status: 0 for
// nil, 130 for cancellation (Ctrl-C through a context-aware run), 2 for
// user-input errors, 1 for everything else.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		return ExitInterrupted
	case IsBadInput(err):
		return 2
	}
	return 1
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM — the
// base context of every context-aware CLI, so Ctrl-C stops scheduling new
// simulations while in-flight ones finish and persist. Default signal
// behaviour is restored as soon as the first signal lands (not only when
// the CancelFunc runs), so a second Ctrl-C kills the process outright
// instead of being swallowed while the graceful wind-down drains.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// ValidateParallel rejects negative worker-pool bounds. Zero is valid
// (it selects GOMAXPROCS).
func ValidateParallel(n int) error {
	if n < 0 {
		return BadInput(fmt.Errorf("-parallel %d: must be >= 0 (0 = GOMAXPROCS, 1 = serial)", n))
	}
	return nil
}

// ValidateMaxQueued rejects non-positive admission-queue bounds: a
// service that can never admit a sweep is a misconfiguration, not a
// policy.
func ValidateMaxQueued(n int) error {
	if n <= 0 {
		return BadInput(fmt.Errorf("-max-queued %d: must be >= 1", n))
	}
	return nil
}

// ValidateCacheDir rejects cache directories that could never be
// created: the directory itself may not exist yet (the store creates it
// lazily), but its parent must already be a directory. Empty means "no
// persistent store" and is valid.
func ValidateCacheDir(dir string) error {
	if dir == "" {
		return nil
	}
	if fi, err := os.Stat(dir); err == nil {
		if !fi.IsDir() {
			return BadInput(fmt.Errorf("-cache-dir %s: exists and is not a directory", dir))
		}
		return nil
	}
	parent := filepath.Dir(filepath.Clean(dir))
	fi, err := os.Stat(parent)
	if err != nil {
		return BadInput(fmt.Errorf("-cache-dir %s: parent directory %s does not exist", dir, parent))
	}
	if !fi.IsDir() {
		return BadInput(fmt.Errorf("-cache-dir %s: parent %s is not a directory", dir, parent))
	}
	return nil
}

// ValidateEngineFlags bundles the engine knob checks every command
// shares.
func ValidateEngineFlags(parallel int, cacheDir string) error {
	if err := ValidateParallel(parallel); err != nil {
		return err
	}
	return ValidateCacheDir(cacheDir)
}

// ResolveStoreFlags folds the -store and -cache-dir flags into one
// effective store spec: -cache-dir DIR is the legacy alias for the
// filesystem backend (fs:DIR), so passing both flags is ambiguous and
// rejected. The spec's syntax is validated (engine.ParseStoreSpec) and
// an fs: directory runs through the same parent-directory checks
// -cache-dir always had. An empty result means "no persistent store".
func ResolveStoreFlags(storeSpec, cacheDir string) (string, error) {
	if storeSpec != "" && cacheDir != "" {
		return "", BadInput(fmt.Errorf("-store and -cache-dir are mutually exclusive (-cache-dir %s is shorthand for -store fs:%s)", cacheDir, cacheDir))
	}
	if storeSpec == "" {
		if cacheDir == "" {
			return "", nil
		}
		if err := ValidateCacheDir(cacheDir); err != nil {
			return "", err
		}
		return "fs:" + cacheDir, nil
	}
	dir, err := engine.ParseStoreSpec(storeSpec)
	if err != nil {
		return "", BadInput(err)
	}
	if err := ValidateCacheDir(dir); err != nil {
		return "", err
	}
	return storeSpec, nil
}
