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
// as sweep s1 and answers with one result event per point of a
// points-sized grid, then done.
func streamServer(t *testing.T, points int, manifest *engine.Manifest) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", "/v1/sweeps/s1")
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
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "client: stream sweep s1") {
		t.Fatalf("stream err = %v, want the stream sweep error wrapping bufio.ErrTooLong", err)
	}
}
