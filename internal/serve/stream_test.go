package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	return streamEvents(t, resp), resp
}

// postStream submits spec asking for the NDJSON stream as the answer.
func postStream(t *testing.T, ts *httptest.Server, spec string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := streamClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamEvents checks that resp is an NDJSON stream and forwards its
// decoded events on the returned channel (closed at EOF).
func streamEvents(t *testing.T, resp *http.Response) <-chan client.StreamEvent {
	t.Helper()
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
	return ch
}

// streamOpener starts a sweep of spec and opens its stream, returning
// the sweep id: openByGet submits and then attaches with GET
// …/stream, openBySubmit reads the stream a submission answers with.
type streamOpener func(t *testing.T, ts *httptest.Server, spec string) (string, <-chan client.StreamEvent, *http.Response)

func openByGet(t *testing.T, ts *httptest.Server, spec string) (string, <-chan client.StreamEvent, *http.Response) {
	st := submit(t, ts, spec)
	ch, resp := streamLines(t, ts, st.ID)
	return st.ID, ch, resp
}

func openBySubmit(t *testing.T, ts *httptest.Server, spec string) (string, <-chan client.StreamEvent, *http.Response) {
	resp := postStream(t, ts, spec)
	id, ok := strings.CutPrefix(resp.Header.Get("Location"), "/v1/sweeps/")
	if !ok || id == "" {
		t.Fatalf("streamed submission: Location = %q", resp.Header.Get("Location"))
	}
	return id, streamEvents(t, resp), resp
}

// TestStreamDeliversInGridOrderWhileRunning gates the simulator, opens
// the stream mid-sweep, and asserts per-point events arrive in strict
// grid order with valid sources, terminated by the done event — then
// replays the finished sweep's stream instantly.
func TestStreamDeliversInGridOrderWhileRunning(t *testing.T) {
	streamInGridOrder(t, openByGet)
}

// TestSubmitStreamDeliversInGridOrderWhileRunning: the same through the
// stream a submission answers with.
func TestSubmitStreamDeliversInGridOrderWhileRunning(t *testing.T) {
	streamInGridOrder(t, openBySubmit)
}

func streamInGridOrder(t *testing.T, open streamOpener) {
	const points = 4 // testSpec's grid
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

	id, ch, resp := open(t, ts, testSpec)
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
	if len(events) != points+1 {
		t.Fatalf("got %d events, want %d points + done", len(events), points)
	}
	for i, ev := range events[:points] {
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
	last := events[points]
	if !last.Done || last.Points != points {
		t.Fatalf("terminal event = %+v", last)
	}

	// A finished sweep replays its whole stream immediately.
	replay, resp2 := streamLines(t, ts, id)
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
	if n != points {
		t.Fatalf("replay delivered %d points, want %d", n, points)
	}
}

// TestStreamFlushesBeforeWaiting gates each job on its own channel:
// point 0 must reach the client while point 1 is still blocked, since
// the stream flushes whatever it holds before it waits, and once the
// sweep has finished its replay arrives whole.
func TestStreamFlushesBeforeWaiting(t *testing.T) {
	streamFlushesBeforeWaiting(t, openByGet)
}

// TestSubmitStreamFlushesBeforeWaiting: the same through the stream a
// submission answers with, whose response header must arrive while
// point 0 is still blocked.
func TestSubmitStreamFlushesBeforeWaiting(t *testing.T) {
	streamFlushesBeforeWaiting(t, openBySubmit)
}

func streamFlushesBeforeWaiting(t *testing.T, open streamOpener) {
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

	id, ch, resp := open(t, ts, `{"benchmarks": ["swim", "gcc"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`)
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

	replay, resp2 := streamLines(t, ts, id)
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

	const spec = `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 100, "instructions": 200}`
	st := submit(t, ts, spec)
	waitDone(t, ts, st.ID)
	ch, resp := streamLines(t, ts, st.ID)
	defer resp.Body.Close()
	_, sch, sresp := openBySubmit(t, ts, spec)
	defer sresp.Body.Close()
	for _, ch := range []<-chan client.StreamEvent{ch, sch} {
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
}

// TestSubmitStreamMatchesGetStream: the body a streamed submission
// answers with is byte for byte the stream GET …/stream replays for the
// same sweep, and the submission leaves the sweep registered.
func TestSubmitStreamMatchesGetStream(t *testing.T) {
	srv := New(Config{Parallel: 2, Store: engine.NewStore(t.TempDir())})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postStream(t, ts, testSpec)
	posted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("streamed submission: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	id, _ := strings.CutPrefix(resp.Header.Get("Location"), "/v1/sweeps/")
	if st := waitDone(t, ts, id); st.State != "done" || st.Simulated != 4 {
		t.Fatalf("sweep %q after its stream: %+v", id, st)
	}
	gresp, err := streamClient.Get(ts.URL + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(posted, got) {
		t.Fatalf("GET stream differs from the submission's:\n%s\nvs\n%s", got, posted)
	}
	if n := bytes.Count(posted, []byte("\n")); n != 5 {
		t.Fatalf("submission streamed %d lines, want 4 points and done", n)
	}
	fetch(t, ts, id, "csv") // the result endpoint serves the sweep too
}

// TestSubmitStreamCancelled: a client that goes away mid-stream frees
// its submission's handler while the sweep runs on, finishes and
// persists, so a warm rerun over the store simulates nothing.
func TestSubmitStreamCancelled(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	srv := New(Config{
		Parallel: 4,
		Store:    engine.NewStore(dir),
		Simulate: func(j engine.Job) (engine.Result, error) {
			// The ROB-128 half of testSpec resolves freely so the stream
			// opens; the ROB-256 half waits for the test.
			if j.Machine != nil && j.Machine.ROBSize == 256 {
				<-release
			}
			return engine.Simulate(j)
		},
	})
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			returned <- struct{}{}
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := streamClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id, _ := strings.CutPrefix(resp.Header.Get("Location"), "/v1/sweeps/")
	var ev client.StreamEvent
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil || ev.UnmarshalJSON(line) != nil || ev.Index != 0 || ev.Result == nil {
		t.Fatalf("first line %q (%v), want point 0", line, err)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the submission's handler outlived its cancelled client")
	}
	var st Status
	if getJSON(t, ts, "/v1/sweeps/"+id+"/status", &st); st.State == "done" {
		t.Fatalf("sweep finished before its gated points were released: %+v", st)
	}
	close(release)
	if st := waitDone(t, ts, id); st.State != "done" || st.Simulated != 4 {
		t.Fatalf("sweep after its client left: %+v", st)
	}

	warm := httptest.NewServer(New(Config{Parallel: 2, Store: engine.NewStore(dir)}))
	defer warm.Close()
	wid, wch, wresp := openBySubmit(t, warm, testSpec)
	defer wresp.Body.Close()
	n := 0
	for ev := range wch {
		if !ev.Done {
			n++
		}
	}
	if st := waitDone(t, warm, wid); n != 4 || st.Simulated != 0 || st.DiskHits != 4 {
		t.Fatalf("warm rerun streamed %d points with %+v, want 4 disk hits and 0 simulated", n, st)
	}
}

// TestAcceptsNDJSON: a submission streams when any media range of its
// Accept header names application/x-ndjson, whatever its case,
// parameters or neighbours.
func TestAcceptsNDJSON(t *testing.T) {
	for _, tc := range []struct {
		accept []string
		want   bool
	}{
		{nil, false},
		{[]string{"application/json"}, false},
		{[]string{"*/*"}, false},
		{[]string{"application/x-ndjson-seq"}, false},
		{[]string{"application/x-ndjson"}, true},
		{[]string{"Application/X-NDJSON"}, true},
		{[]string{"application/json, application/x-ndjson;q=0.9"}, true},
		{[]string{"text/plain", " application/x-ndjson "}, true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil)
		for _, v := range tc.accept {
			r.Header.Add("Accept", v)
		}
		if got := acceptsNDJSON(r); got != tc.want {
			t.Errorf("Accept %q: streams = %v, want %v", tc.accept, got, tc.want)
		}
	}
}
