package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distiq/internal/client"
	"distiq/internal/cliutil"
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
	if last := streamSweep(t, ts.URL, spec); !last.Done || last.Points != 1 {
		t.Fatalf("stream ended with %+v, want done after 1 point", last)
	}
	if errw.Len() != 0 {
		t.Fatalf("-quiet still logged: %s", errw.String())
	}

	// Without -quiet the lifecycle log lands on stderr. The buffer needs
	// a lock: sweep goroutines log concurrently with the test's reads.
	loud := &syncBuffer{}
	srv2, _, _, err := setup(nil, loud)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	streamSweep(t, ts2.URL, spec)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(loud.String(), "accepted") {
		if time.Now().After(deadline) {
			t.Fatalf("no lifecycle log; stderr: %q", loud.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamSweep submits spec to the distiqd at base and returns the last
// event of the NDJSON stream it answers with.
func streamSweep(t *testing.T, base, spec string) client.StreamEvent {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var last client.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 4<<20)
	for sc.Scan() {
		if err := last.UnmarshalJSON(sc.Bytes()); err != nil {
			t.Fatalf("stream line %q: %v", sc.Bytes(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return last
}
