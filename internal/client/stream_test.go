package client_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distiq/internal/client"
	"distiq/internal/engine"
)

// streamServer fakes distiqd's streamed submission: it admits any spec
// and answers with one result event per point of a points-sized grid,
// then done.
func streamServer(t *testing.T, points int, manifest *engine.Manifest) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		for i := 0; i < points; i++ {
			enc.Encode(client.StreamEvent{Index: i, Result: &engine.Result{}})
		}
		enc.Encode(client.StreamEvent{Done: true, Points: points, Manifest: manifest})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteStreamLongLine: a stream line longer than 64 KiB, as a large
// grid's done manifest is, parses.
func TestRemoteStreamLongLine(t *testing.T) {
	grid := testGrid(t)
	m := &engine.Manifest{Version: "v", Points: 1000}
	for i := 0; i < 1000; i++ {
		m.Leaves = append(m.Leaves, engine.ManifestLeaf{Index: i, Benchmark: "swim", Config: "MB_distr",
			Fingerprint: strings.Repeat("f", 64), Hash: strings.Repeat("h", 64)})
	}
	line, _ := json.Marshal(client.StreamEvent{Done: true, Points: grid.Size(), Manifest: m})
	if len(line) <= 64<<10 {
		t.Fatalf("done line of %d bytes, want more than 64 KiB", len(line))
	}
	st := client.NewRemote(streamServer(t, grid.Size(), m).URL).Sweep(context.Background(), grid)
	for st.Next() {
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if got := st.Manifest(); got == nil || len(got.Leaves) != len(m.Leaves) {
		t.Fatalf("manifest %v, want %d leaves", got, len(m.Leaves))
	}
}

// TestRemoteStreamLineTooLong: a line longer than the 4 MiB bound fails
// the stream with its read error.
func TestRemoteStreamLineTooLong(t *testing.T) {
	grid := testGrid(t)
	m := &engine.Manifest{Version: "v", Name: strings.Repeat("n", 4<<20)}
	st := client.NewRemote(streamServer(t, grid.Size(), m).URL).Sweep(context.Background(), grid)
	for st.Next() {
	}
	err := st.Err()
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "client: stream sweep: ") {
		t.Fatalf("stream err = %v, want the stream sweep error wrapping bufio.ErrTooLong", err)
	}
}

// TestRemoteStreamErrorEvent: a Remote sweep fails with an error
// event's message as it is when it names its point, as a Local sweep's
// error does, and prefixes the event's index to one that does not.
func TestRemoteStreamErrorEvent(t *testing.T) {
	grid := testGrid(t)
	for _, tc := range []struct{ event, want string }{
		{"client: sweep point 1 (swim under MB_distr): engine: boom", "client: sweep point 1 (swim under MB_distr): engine: boom"},
		{"engine: swim under MB_distr: boom", "client: sweep failed at point 1: engine: swim under MB_distr: boom"},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
			enc := json.NewEncoder(w)
			enc.Encode(client.StreamEvent{Index: 0, Result: &engine.Result{}})
			enc.Encode(client.StreamEvent{Index: 1, Error: tc.event})
		})
		ts := httptest.NewServer(mux)
		st := client.NewRemote(ts.URL).Sweep(context.Background(), grid)
		for st.Next() {
		}
		ts.Close()
		if err := st.Err(); err == nil || err.Error() != tc.want {
			t.Errorf("error event %q: stream err = %v, want %q", tc.event, err, tc.want)
		}
	}
}

// TestStreamNextContextCancelled: with nothing ready, NextContext calls
// its idle hook once and, its context done, returns false without
// failing the stream; the next Next still gets the next update.
func TestStreamNextContextCancelled(t *testing.T) {
	gate := make(chan struct{})
	eng := engine.New(engine.Config{Workers: 1, Simulate: func(j engine.Job) (engine.Result, error) {
		<-gate
		return engine.Result{}, nil
	}})
	grid := testGrid(t)
	st := client.NewLocalOn(eng).Sweep(context.Background(), grid)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idle := 0
	if st.NextContext(ctx, func() { idle++ }) {
		t.Fatal("NextContext advanced with nothing ready")
	}
	if idle != 1 {
		t.Fatalf("idle hook ran %d times, want 1", idle)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("a done context failed the stream: %v", err)
	}
	close(gate)
	if !st.Next() {
		t.Fatalf("Next after a cancelled NextContext: %v", st.Err())
	}
	if u := st.Update(); u.Index != 0 {
		t.Fatalf("Next got point %d, want 0", u.Index)
	}
	n := 1
	for st.NextContext(context.Background(), nil) {
		n++
	}
	if err := st.Err(); err != nil || n != grid.Size() {
		t.Fatalf("stream delivered %d of %d points (%v)", n, grid.Size(), err)
	}
}
