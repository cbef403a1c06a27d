package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/study"
)

// studyState reuses the sweep lifecycle vocabulary for studies.
type studyState = sweepState

// studyRec is one admitted study and its progress. Per-point updates
// are retained in plan order as they resolve, so the NDJSON streaming
// endpoint can replay a running or finished study; cond (on mu) is
// broadcast at every point and state change.
type studyRec struct {
	id   string
	spec *study.Spec
	// reqID threads the submitting request's ID through lifecycle logs.
	reqID string
	// planned is the up-front point count (0 for the adaptive frontier
	// mode, whose total emerges as the search runs).
	planned int

	mu     sync.Mutex
	cond   *sync.Cond
	state  studyState
	events []study.PointUpdate
	res    *study.Result
	err    error
	// manifest covers every evaluated point, built once on success.
	manifest *engine.Manifest
}

// StudyStatus is the JSON progress document of one study.
type StudyStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Mode string `json:"mode"`
	// State is queued, running, done or failed.
	State string `json:"state"`
	// Points is the planned point count; for the adaptive frontier mode
	// it grows with Done as the search proposes work.
	Points int `json:"points"`
	Done   int `json:"done"`
	// Per-study resolution counts (a warm resubmission shows 0
	// simulated even while other work simulates).
	Simulated  int64  `json:"simulated"`
	MemoryHits int64  `json:"memory_hits"`
	DiskHits   int64  `json:"disk_hits"`
	Shared     int64  `json:"shared"`
	Error      string `json:"error,omitempty"`
}

// StudyEvent is one NDJSON line of GET /v1/studies/{id}/stream: a
// resolved point, or the terminal done/error event.
type StudyEvent struct {
	Seq       int            `json:"seq"`
	Stage     string         `json:"stage,omitempty"`
	Benchmark string         `json:"benchmark,omitempty"`
	Source    engine.Source  `json:"source,omitempty"`
	Result    *engine.Result `json:"result,omitempty"`
	// Terminal markers: exactly one closing event per stream.
	Done     bool             `json:"done,omitempty"`
	Points   int              `json:"points,omitempty"`
	Manifest *engine.Manifest `json:"manifest,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// status snapshots the study under its lock.
func (st *studyRec) status() StudyStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.statusLocked()
}

// statusLocked snapshots the study; the caller holds st.mu.
func (st *studyRec) statusLocked() StudyStatus {
	var counts client.Counts
	for _, ev := range st.events {
		counts.Add(ev.Source)
	}
	points := st.planned
	if points == 0 {
		points = len(st.events)
	}
	doc := StudyStatus{
		ID: st.id, Name: st.spec.Name, Mode: st.spec.Mode,
		State: string(st.state), Points: points, Done: len(st.events),
		Simulated: counts.Simulated, MemoryHits: counts.MemoryHits,
		DiskHits: counts.DiskHits, Shared: counts.Shared,
	}
	if st.err != nil {
		doc.Error = st.err.Error()
	}
	return doc
}

// handleStudySubmit parses and validates a study spec, then admits it
// onto the study queue (bounded separately from sweeps) and starts it on
// the shared engine through the in-process Client.
func (s *Server) handleStudySubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("spec exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("reading request body: %v", err))
		return
	}
	spec, err := study.ParseSpec(body)
	if err != nil {
		writeSpecError(w, err)
		return
	}
	planned, err := spec.PlannedPoints()
	if err != nil {
		writeSpecError(w, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; not accepting new studies")
		return
	}
	if s.activeStudies >= s.maxQueued {
		n := s.activeStudies
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("study queue is full (%d studies queued or running)", n))
		return
	}
	s.nextStudyID++
	st := &studyRec{
		id:      fmt.Sprintf("st-%06d", s.nextStudyID),
		spec:    spec,
		reqID:   RequestID(r.Context()),
		planned: planned,
		state:   stateQueued,
	}
	st.cond = sync.NewCond(&st.mu)
	s.studies[st.id] = st
	s.studyOrder = append(s.studyOrder, st.id)
	s.activeStudies++
	s.wg.Add(1)
	s.mu.Unlock()

	s.studiesAccepted.Inc()
	s.log.Info("study accepted",
		"study", st.id, "name", spec.Name, "mode", spec.Mode,
		"planned", planned, "request_id", st.reqID)
	// Snapshot the documented "queued" response before the study starts
	// (a warm study could otherwise finish before the 202 renders).
	doc := st.status()
	go s.runStudy(st)

	w.Header().Set("Location", "/v1/studies/"+st.id)
	writeJSON(w, http.StatusAccepted, doc)
}

// runStudy executes one admitted study on the shared engine through the
// in-process Client, recording every resolved point in plan order (the
// streaming endpoint replays them) and the study's table on completion.
func (s *Server) runStudy(st *studyRec) {
	defer s.wg.Done()
	started := time.Now()
	st.mu.Lock()
	st.state = stateRunning
	st.cond.Broadcast()
	st.mu.Unlock()

	res, err := study.RunOpts(context.Background(), client.NewLocalOn(s.eng), st.spec,
		study.Options{OnPoint: func(u study.PointUpdate) {
			s.studyPoints.Inc()
			st.mu.Lock()
			st.events = append(st.events, u)
			st.cond.Broadcast()
			st.mu.Unlock()
		}})
	var manifest *engine.Manifest
	if err == nil {
		manifest, err = res.Manifest()
	}

	// Count the study before publishing its final state: a status poller
	// the broadcast wakes may scrape the metrics next.
	if err != nil {
		s.studiesFailed.Inc()
	} else {
		s.studyFrontierRounds.Add(float64(len(res.Trajectory)))
		s.studiesDone.Inc()
	}

	st.mu.Lock()
	if err != nil {
		st.state, st.err = stateFailed, err
	} else {
		st.state = stateDone
		st.res = res
		st.manifest = manifest
	}
	st.cond.Broadcast()
	st.mu.Unlock()

	s.mu.Lock()
	s.activeStudies--
	s.evictStudiesLocked()
	s.mu.Unlock()

	elapsed := time.Since(started)
	if err != nil {
		s.log.Error("study failed",
			"study", st.id, "error", err.Error(),
			"duration_s", elapsed.Seconds(), "request_id", st.reqID)
		return
	}
	s.log.Info("study done",
		"study", st.id, "mode", res.Mode,
		"points", len(res.Results), "rows", len(res.Rows),
		"simulated", res.Counts.Simulated, "memory", res.Counts.MemoryHits,
		"disk", res.Counts.DiskHits, "shared", res.Counts.Shared,
		"duration_s", elapsed.Seconds(),
		"merkle_root", manifest.Root,
		"request_id", st.reqID)
}

// evictStudiesLocked drops the oldest finished studies beyond
// maxHistory, mirroring the sweep registry's bound. Called with s.mu
// held.
func (s *Server) evictStudiesLocked() {
	finished := 0
	for _, id := range s.studyOrder {
		st := s.studies[id]
		st.mu.Lock()
		f := st.state == stateDone || st.state == stateFailed
		st.mu.Unlock()
		if f {
			finished++
		}
	}
	for i := 0; finished > s.maxHistory && i < len(s.studyOrder); {
		st := s.studies[s.studyOrder[i]]
		st.mu.Lock()
		f := st.state == stateDone || st.state == stateFailed
		st.mu.Unlock()
		if !f {
			i++
			continue
		}
		delete(s.studies, st.id)
		s.studyOrder = append(s.studyOrder[:i], s.studyOrder[i+1:]...)
		finished--
		s.log.Info("study evicted", "study", st.id, "max_history", s.maxHistory)
	}
}

// lookupStudy returns the study for the request's {id}, or writes 404.
func (s *Server) lookupStudy(w http.ResponseWriter, r *http.Request) *studyRec {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.studies[id]
	s.mu.Unlock()
	if st == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown study %q", id))
	}
	return st
}

// handleStudyList serves every known study's status in admission order.
func (s *Server) handleStudyList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sts := make([]*studyRec, 0, len(s.studyOrder))
	for _, id := range s.studyOrder {
		sts = append(sts, s.studies[id])
	}
	s.mu.Unlock()
	out := make([]StudyStatus, len(sts))
	for i, st := range sts {
		out[i] = st.status()
	}
	writeJSON(w, http.StatusOK, struct {
		Studies []StudyStatus `json:"studies"`
	}{out})
}

// handleStudyStatus serves per-study progress.
func (s *Server) handleStudyStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookupStudy(w, r)
	if st == nil {
		return
	}
	writeJSON(w, http.StatusOK, st.status())
}

// handleStudyResult serves a finished study's table through the study
// emitters — the same code path as cmd/iqstudy, so the bodies are
// byte-identical. While the study is queued or running it answers 202
// with the status document.
func (s *Server) handleStudyResult(w http.ResponseWriter, r *http.Request) {
	st := s.lookupStudy(w, r)
	if st == nil {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	ctype, ok := study.ContentType(format)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_format",
			fmt.Sprintf("unknown format %q (csv, json or md)", format))
		return
	}

	st.mu.Lock()
	doc := st.statusLocked()
	res, err := st.res, st.err
	st.mu.Unlock()
	switch studyState(doc.State) {
	case stateQueued, stateRunning:
		writeJSON(w, http.StatusAccepted, doc)
		return
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "study_failed", err.Error())
		return
	}

	w.Header().Set("Content-Type", ctype)
	if err := res.Emit(w, format); err != nil {
		s.log.Warn("emit failed", "study", st.id, "format", format, "error", err.Error())
	}
}

// handleStudyStream serves a study's per-point updates as NDJSON
// (StudyEvent per line) in plan order, each flushed as it resolves; the
// stream terminates with {"done":true} carrying the manifest, or an
// {"error":...} event if the study fails.
func (s *Server) handleStudyStream(w http.ResponseWriter, r *http.Request) {
	st := s.lookupStudy(w, r)
	if st == nil {
		return
	}
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)

	// The frontier's total is unknown up front, so the stream follows
	// len(events) until the study reaches a terminal state.
	for i := 0; ; i++ {
		st.mu.Lock()
		for i >= len(st.events) && st.state != stateDone && st.state != stateFailed && ctx.Err() == nil {
			st.cond.Wait()
		}
		var ev *study.PointUpdate
		if i < len(st.events) {
			u := st.events[i]
			ev = &u
		}
		state := st.state
		err := st.err
		manifest := st.manifest
		total := len(st.events)
		st.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if ev == nil {
			if state == stateFailed {
				msg := "study failed"
				if err != nil {
					msg = err.Error()
				}
				enc.Encode(StudyEvent{Seq: i, Error: msg}) //nolint:errcheck // stream already committed
				return
			}
			enc.Encode(StudyEvent{Done: true, Points: total, Manifest: manifest}) //nolint:errcheck // stream already committed
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		res := ev.Result
		if err := enc.Encode(StudyEvent{
			Seq: ev.Seq, Stage: ev.Stage, Benchmark: ev.Benchmark,
			Source: ev.Source, Result: &res,
		}); err != nil {
			return // client went away mid-write
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleStudyManifest serves a finished study's tamper-evident Merkle
// manifest over every evaluated point: 202 while queued or running, the
// study's error while failed, the manifest JSON once done.
func (s *Server) handleStudyManifest(w http.ResponseWriter, r *http.Request) {
	st := s.lookupStudy(w, r)
	if st == nil {
		return
	}
	st.mu.Lock()
	doc := st.statusLocked()
	m := st.manifest
	err := st.err
	st.mu.Unlock()
	switch studyState(doc.State) {
	case stateQueued, stateRunning:
		writeJSON(w, http.StatusAccepted, doc)
		return
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "study_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// StudyIDs returns every known study id in admission order.
func (s *Server) StudyIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.studyOrder...)
}
