package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distiq/internal/cliutil"
	"distiq/internal/serve"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing server logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSetupRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-parallel", "-1"},
		{"-max-queued", "0"},
		{"-max-queued", "-5"},
		{"-cache-dir", "/nonexistent-parent-dir/sub/cache"},
		// -cache-dir DIR names the one store; -store is gone.
		{"-store", "mem"},
	}
	for _, argv := range cases {
		var errw bytes.Buffer
		if _, _, _, err := setup(argv, &errw); err == nil {
			t.Errorf("%v accepted", argv)
		} else if cliutil.ExitCode(err) != 2 {
			t.Errorf("%v: exit code %d, want 2 (%v)", argv, cliutil.ExitCode(err), err)
		}
	}
	var errw bytes.Buffer
	if _, _, _, err := setup([]string{"-h"}, &errw); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
}

// TestSetupServesSweeps drives a sweep end-to-end through the server the
// command actually assembles, so the flag wiring (addr, parallel, quiet)
// is covered, not just the serve package.
func TestSetupServesSweeps(t *testing.T) {
	var errw bytes.Buffer
	srv, _, addr, err := setup([]string{"-addr", ":0", "-parallel", "2", "-quiet"}, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":0" {
		t.Fatalf("addr = %q", addr)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 500, "instructions": 1000}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" && st.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != "done" || st.Done != 1 {
		t.Fatalf("sweep = %+v", st)
	}
	if errw.Len() != 0 {
		t.Fatalf("-quiet still logged: %s", errw.String())
	}

	// Without -quiet the lifecycle log lands on stderr. The buffer needs
	// a lock: sweep goroutines log concurrently with the test's polling.
	loud := &syncBuffer{}
	srv2, _, _, err := setup(nil, loud)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if _, err := http.Post(ts2.URL+"/v1/sweeps", "application/json", strings.NewReader(spec)); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(loud.String(), "accepted") {
		if time.Now().After(deadline) {
			t.Fatalf("no lifecycle log; stderr: %q", loud.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
