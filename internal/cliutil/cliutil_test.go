package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateParallel(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		if err := ValidateParallel(n); err != nil {
			t.Errorf("parallel %d rejected: %v", n, err)
		}
	}
	if err := ValidateParallel(-1); err == nil {
		t.Error("parallel -1 accepted")
	}
}

func TestValidateCacheDir(t *testing.T) {
	if err := ValidateCacheDir(""); err != nil {
		t.Errorf("empty cache dir rejected: %v", err)
	}
	dir := t.TempDir()
	if err := ValidateCacheDir(dir); err != nil {
		t.Errorf("existing dir rejected: %v", err)
	}
	if err := ValidateCacheDir(filepath.Join(dir, "new-cache")); err != nil {
		t.Errorf("creatable dir rejected: %v", err)
	}
	if err := ValidateCacheDir(filepath.Join(dir, "missing", "cache")); err == nil {
		t.Error("cache dir under missing parent accepted")
	}
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCacheDir(file); err == nil {
		t.Error("cache dir pointing at a file accepted")
	}
	if err := ValidateCacheDir(filepath.Join(file, "cache")); err == nil {
		t.Error("cache dir under a file accepted")
	}
}

func TestValidateEngineFlags(t *testing.T) {
	if err := ValidateEngineFlags(0, ""); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := ValidateEngineFlags(-2, ""); err == nil {
		t.Error("negative parallel accepted")
	}
	if err := ValidateEngineFlags(0, "/no/such/parent/cache"); err == nil {
		t.Error("bad cache dir accepted")
	}
}

func TestBadInputTaxonomy(t *testing.T) {
	if BadInput(nil) != nil {
		t.Error("BadInput(nil) != nil")
	}
	plain := errors.New("disk on fire")
	if IsBadInput(plain) {
		t.Error("plain error classified as bad input")
	}
	marked := BadInput(plain)
	if !IsBadInput(marked) {
		t.Error("marked error not classified")
	}
	if marked.Error() != plain.Error() {
		t.Errorf("marking changed the message: %q", marked.Error())
	}
	if !errors.Is(marked, plain) {
		t.Error("marking broke errors.Is")
	}
	// The mark survives further wrapping, as CLI mains and HTTP handlers
	// wrap errors with context before classifying.
	wrapped := fmt.Errorf("iqsweep: %w", marked)
	if !IsBadInput(wrapped) {
		t.Error("wrapping lost the classification")
	}

	if got := ExitCode(nil); got != 0 {
		t.Errorf("ExitCode(nil) = %d", got)
	}
	if got := ExitCode(plain); got != 1 {
		t.Errorf("ExitCode(system error) = %d", got)
	}
	if got := ExitCode(wrapped); got != 2 {
		t.Errorf("ExitCode(bad input) = %d", got)
	}
}

func TestValidatorsAreBadInput(t *testing.T) {
	for name, err := range map[string]error{
		"parallel":   ValidateParallel(-1),
		"cache-dir":  ValidateCacheDir("/no/such/parent/cache"),
		"max-queued": ValidateMaxQueued(0),
	} {
		if err == nil {
			t.Errorf("%s: invalid value accepted", name)
			continue
		}
		if !IsBadInput(err) {
			t.Errorf("%s: validator error not classified as bad input: %v", name, err)
		}
	}
}

func TestValidateMaxQueued(t *testing.T) {
	for _, n := range []int{1, 64, 1 << 20} {
		if err := ValidateMaxQueued(n); err != nil {
			t.Errorf("max-queued %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, -1} {
		if err := ValidateMaxQueued(n); err == nil {
			t.Errorf("max-queued %d accepted", n)
		}
	}
}

func TestExitCodeTaxonomy(t *testing.T) {
	wrapped := fmt.Errorf("client: sweep point 3 (swim under MB_distr): %w", context.Canceled)
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"system", errors.New("boom"), 1},
		{"bad input", BadInput(errors.New("bad spec")), 2},
		{"canceled", context.Canceled, ExitInterrupted},
		{"wrapped canceled", wrapped, ExitInterrupted},
		{"canceled beats bad-input marking", BadInput(wrapped), ExitInterrupted},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestSignalContextCancels(t *testing.T) {
	ctx, stop := SignalContext()
	if ctx.Err() != nil {
		t.Fatalf("fresh signal context already cancelled: %v", ctx.Err())
	}
	stop()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("stopped signal context err = %v", ctx.Err())
	}
}

func TestResolveStoreFlags(t *testing.T) {
	dir := t.TempDir()

	t.Run("neither", func(t *testing.T) {
		spec, err := ResolveStoreFlags("", "")
		if err != nil || spec != "" {
			t.Fatalf("ResolveStoreFlags(\"\", \"\") = %q, %v", spec, err)
		}
	})
	t.Run("cache-dir alias", func(t *testing.T) {
		spec, err := ResolveStoreFlags("", dir)
		if err != nil || spec != "fs:"+dir {
			t.Fatalf("alias = %q, %v; want fs:%s", spec, err, dir)
		}
	})
	t.Run("mutually exclusive", func(t *testing.T) {
		_, err := ResolveStoreFlags("mem", dir)
		if err == nil || !IsBadInput(err) {
			t.Fatalf("both flags accepted (err=%v)", err)
		}
	})
	t.Run("valid specs pass through", func(t *testing.T) {
		for _, spec := range []string{"mem", "fs:" + dir} {
			got, err := ResolveStoreFlags(spec, "")
			if err != nil || got != spec {
				t.Errorf("spec %q = %q, %v", spec, got, err)
			}
		}
	})
	t.Run("bad syntax is bad input", func(t *testing.T) {
		for _, spec := range []string{
			"s3://bucket", // unknown scheme
			"fs:",         // missing directory
			// Removed backends: the error names the two that remain.
			"http://cache.internal:9000/distiq",
			"https://cache.internal/bucket",
			"tier:mem,fs:" + dir,
			"batch:fs:" + dir,
		} {
			_, err := ResolveStoreFlags(spec, "")
			if err == nil {
				t.Errorf("spec %q accepted", spec)
				continue
			}
			if !IsBadInput(err) {
				t.Errorf("spec %q error not bad input: %v", spec, err)
			}
			if spec != "fs:" && !strings.Contains(err.Error(), "fs:DIR or mem") {
				t.Errorf("spec %q error does not name fs:DIR and mem: %v", spec, err)
			}
		}
	})
	t.Run("fs dirs validated like cache-dir", func(t *testing.T) {
		_, err := ResolveStoreFlags("fs:/no/such/parent/cache", "")
		if err == nil || !IsBadInput(err) {
			t.Fatalf("uncreatable fs: dir accepted (err=%v)", err)
		}
		_, err = ResolveStoreFlags("", "/no/such/parent/cache")
		if err == nil || !IsBadInput(err) {
			t.Fatalf("uncreatable -cache-dir accepted (err=%v)", err)
		}
	})
}
