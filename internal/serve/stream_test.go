package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
)

// streamClient bounds a stream exchange, so a server that never sends
// the response header fails the test instead of hanging it.
var streamClient = &http.Client{Timeout: 30 * time.Second}

// streamLines opens a sweep's NDJSON stream and forwards decoded events
// on the returned channel (closed at EOF).
func streamLines(t *testing.T, ts *httptest.Server, id string) (<-chan client.StreamEvent, *http.Response) {
	t.Helper()
	resp, err := streamClient.Get(ts.URL + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	ch := make(chan client.StreamEvent, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for sc.Scan() {
			var ev client.StreamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Errorf("malformed stream line %q: %v", sc.Text(), err)
				return
			}
			ch <- ev
		}
	}()
	return ch, resp
}

// TestStreamDeliversInGridOrderWhileRunning gates the simulator, opens
// the stream mid-sweep, and asserts per-point events arrive in strict
// grid order with valid sources, terminated by the done event — then
// replays the finished sweep's stream instantly.
func TestStreamDeliversInGridOrderWhileRunning(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{
		Parallel: 2,
		Simulate: func(j engine.Job) (engine.Result, error) {
			<-gate
			var r engine.Result
			r.Benchmark = j.Bench
			r.Config = j.Config.Name
			r.Insts = j.Opt.Instructions
			r.Cycles = 7
			return r, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, testSpec) // 4 points
	ch, resp := streamLines(t, ts, st.ID)
	defer resp.Body.Close()

	// Nothing can stream before the first point resolves.
	select {
	case ev := <-ch:
		t.Fatalf("premature stream event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)

	var events []client.StreamEvent
	deadline := time.After(30 * time.Second)
	for ev := range ch {
		events = append(events, ev)
		select {
		case <-deadline:
			t.Fatal("stream did not finish in 30s")
		default:
		}
	}
	if len(events) != st.Points+1 {
		t.Fatalf("got %d events, want %d points + done", len(events), st.Points)
	}
	for i, ev := range events[:st.Points] {
		if ev.Index != i || ev.Result == nil || ev.Error != "" || ev.Done {
			t.Fatalf("event %d out of order or malformed: %+v", i, ev)
		}
		if ev.Benchmark != "swim" || ev.Result.Cycles != 7 {
			t.Fatalf("event %d payload: %+v", i, ev)
		}
		if ev.Source != engine.SourceSimulated && ev.Source != engine.SourceMemory &&
			ev.Source != engine.SourceDisk && ev.Source != engine.SourceShared {
			t.Fatalf("event %d source = %q", i, ev.Source)
		}
	}
	last := events[st.Points]
	if !last.Done || last.Points != st.Points {
		t.Fatalf("terminal event = %+v", last)
	}

	// A finished sweep replays its whole stream immediately.
	replay, resp2 := streamLines(t, ts, st.ID)
	defer resp2.Body.Close()
	n := 0
	for ev := range replay {
		if !ev.Done {
			if ev.Index != n {
				t.Fatalf("replay event %d has index %d", n, ev.Index)
			}
			n++
		}
	}
	if n != st.Points {
		t.Fatalf("replay delivered %d points, want %d", n, st.Points)
	}
}

// TestStreamFlushesBeforeWaiting gates each job on its own channel:
// point 0 must reach the client while point 1 is still blocked, since
// the stream flushes whatever it holds before it waits, and once the
// sweep has finished its replay arrives whole.
func TestStreamFlushesBeforeWaiting(t *testing.T) {
	gates := map[string]chan struct{}{"swim": make(chan struct{}), "gcc": make(chan struct{})}
	srv := New(Config{
		Parallel: 2,
		Simulate: func(j engine.Job) (engine.Result, error) {
			<-gates[j.Bench]
			var r engine.Result
			r.Benchmark = j.Bench
			return r, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Whatever fails, let the sweep finish (a receive succeeds only
	// from a closed gate).
	defer func() {
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	}()

	st := submit(t, ts, `{"benchmarks": ["swim", "gcc"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	ch, resp := streamLines(t, ts, st.ID)
	defer resp.Body.Close()

	close(gates["swim"])
	select {
	case ev := <-ch:
		if ev.Index != 0 || ev.Benchmark != "swim" || ev.Result == nil {
			t.Fatalf("first event %+v, want point 0 (swim)", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("point 0 did not reach the client while point 1 was blocked")
	}
	select {
	case ev := <-ch:
		t.Fatalf("event %+v arrived while point 1 was blocked", ev)
	case <-time.After(50 * time.Millisecond):
	}
	close(gates["gcc"])
	want := []string{"1:gcc", "done"}
	var got []string
	for ev := range ch {
		got = append(got, eventTag(ev))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after point 0: events %v, want %v", got, want)
	}

	replay, resp2 := streamLines(t, ts, st.ID)
	defer resp2.Body.Close()
	got = got[:0]
	for ev := range replay {
		got = append(got, eventTag(ev))
	}
	if want := []string{"0:swim", "1:gcc", "done"}; !slices.Equal(got, want) {
		t.Fatalf("replay events %v, want %v", got, want)
	}
}

// eventTag names a stream event: index and benchmark, or done.
func eventTag(ev client.StreamEvent) string {
	if ev.Done {
		return "done"
	}
	return fmt.Sprintf("%d:%s", ev.Index, ev.Benchmark)
}

// TestStreamUnknownSweep404s.
func TestStreamUnknownSweep404s(t *testing.T) {
	srv := New(Config{Parallel: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/sweeps/sw-999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestStreamFailedSweepTerminatesWithError: the stream of a failed sweep
// ends with an error event at the first unresolved point.
func TestStreamFailedSweepTerminatesWithError(t *testing.T) {
	srv := New(Config{
		Parallel: 1,
		Simulate: func(j engine.Job) (engine.Result, error) {
			return engine.Result{}, fmt.Errorf("injected stream failure")
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := submit(t, ts, `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
	waitDone(t, ts, st.ID)
	ch, resp := streamLines(t, ts, st.ID)
	defer resp.Body.Close()
	var events []client.StreamEvent
	for ev := range ch {
		events = append(events, ev)
	}
	if len(events) != 1 {
		t.Fatalf("failed sweep streamed %d events: %+v", len(events), events)
	}
	if events[0].Error == "" || !strings.Contains(events[0].Error, "injected stream failure") {
		t.Fatalf("terminal event = %+v", events[0])
	}
}
