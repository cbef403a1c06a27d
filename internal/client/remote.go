package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"distiq/internal/cliutil"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/scenario"
)

// maxStreamLine bounds one NDJSON stream line; result documents are a
// few kilobytes, so four megabytes is generous.
const maxStreamLine = 4 << 20

// Remote is the Client over a distiqd service: a sweep is one exchange,
// its scenario spec posted to POST /v1/sweeps with an Accept header
// naming application/x-ndjson and its per-point results read off the
// NDJSON stream the service answers with, so many remote clients
// amortize the service's one warm engine. It needs a distiqd that
// streams submissions; an older one answers 202, which Remote reports as
// an error. The stream arrives in grid order straight off the wire;
// results decode to the exact engine.Result the server computed, so
// documents assembled from a Remote sweep are byte-identical to a Local
// sweep of the same grid.
type Remote struct {
	base string
	hc   *http.Client
}

// NewRemote returns a Remote client for the distiqd at baseURL (e.g.
// "http://localhost:8090"). Recognized options: WithHTTPClient. The
// default client bounds connection setup (dial, TLS, response headers)
// but not the whole exchange — a sweep stream stays open for as long as
// the sweep runs, so an overall timeout would sever healthy long sweeps,
// while an unreachable worker still fails fast at connect time.
func NewRemote(baseURL string, opts ...Option) *Remote {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	hc := cfg.httpClient
	if hc == nil {
		hc = NewHTTPClient()
	}
	return &Remote{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// NewHTTPClient returns the http.Client a Remote speaks through by
// default: bounded connection setup (dial, TLS handshake, response
// headers) on a keep-alive transport, with the whole exchange left
// unbounded — the right shape for long-lived streaming responses (the
// distiqd NDJSON stream sends headers immediately but bodies for as
// long as the sweep runs).
func NewHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   10 * time.Second,
			ResponseHeaderTimeout: 30 * time.Second,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   16,
		},
	}
}

// Base returns the service base URL.
func (c *Remote) Base() string { return c.base }

// Healthy probes the service's /healthz readiness endpoint, bounding
// the probe to two seconds. Anything but a prompt 200 — refused
// connection, timeout, a draining 503 — reads as unhealthy, so a caller
// can wait for a freshly started service before submitting work.
func (c *Remote) Healthy(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Run resolves one job by submitting it as a single-point sweep. The job
// must be expressible as a scenario spec (named or parametric scheme, no
// Custom factories) — SpecForJob documents the mapping.
func (c *Remote) Run(ctx context.Context, job Job) (engine.Result, error) {
	spec, err := SpecForJob(job)
	if err != nil {
		return engine.Result{}, err
	}
	grid, err := spec.Expand()
	if err != nil {
		return engine.Result{}, err
	}
	st := c.Sweep(ctx, grid)
	if !st.Next() {
		if st.Err() != nil {
			return engine.Result{}, st.Err()
		}
		return engine.Result{}, errors.New("client: remote stream delivered no result")
	}
	res := st.Update().Result
	for st.Next() {
	}
	return res, st.Err()
}

// Sweep submits the grid's spec and streams per-point results from the
// service in grid order, in one exchange. Cancelling ctx aborts the HTTP
// stream promptly (the stream error unwraps to context.Canceled); the
// service finishes the sweep server-side and persists into its store,
// so resubmitting the same grid later costs no re-simulation of
// completed points.
func (c *Remote) Sweep(ctx context.Context, grid *scenario.Grid) *Stream {
	st := newStream(grid)
	go func() {
		defer st.finish()
		if err := c.stream(ctx, grid, st); err != nil {
			st.fail(err)
		}
	}()
	return st
}

// stream drives one sweep exchange: it posts the spec asking for the
// NDJSON stream, takes the sweep id from the response's Location and
// pushes in-order updates onto st.
func (c *Remote) stream(ctx context.Context, grid *scenario.Grid, st *Stream) error {
	data, err := grid.Spec.JSON()
	if err != nil {
		return fmt.Errorf("client: encode spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("client: submit sweep: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: submit sweep: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusAccepted:
		return errors.New("client: submit sweep: HTTP 202 without a stream (the server predates streamed submissions)")
	default:
		return c.errorFrom("submit sweep", resp)
	}
	id, ok := strings.CutPrefix(resp.Header.Get("Location"), "/v1/sweeps/")
	if !ok || id == "" {
		return fmt.Errorf("client: submit sweep: no sweep named in Location %q", resp.Header.Get("Location"))
	}

	// The scanner's buffer starts at 4 KiB and grows to the longest line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxStreamLine)
	next := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := ev.UnmarshalJSON(line); err != nil {
			return fmt.Errorf("client: sweep %s: malformed stream event: %w", id, err)
		}
		switch {
		case ev.Error != "":
			return fmt.Errorf("client: sweep %s failed at point %d: %s", id, ev.Index, ev.Error)
		case ev.Done:
			if next != grid.Size() {
				return fmt.Errorf("client: sweep %s stream ended after %d of %d points", id, next, grid.Size())
			}
			st.setManifest(ev.Manifest)
			return nil
		default:
			if ev.Result == nil || ev.Index != next || next >= grid.Size() {
				return fmt.Errorf("client: sweep %s: out-of-order stream event (index %d, expected %d)", id, ev.Index, next)
			}
			st.send(Update{Index: next, Point: grid.Points[next], Result: *ev.Result, Source: ev.Source})
			next++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: stream sweep %s: %w", id, err)
	}
	return fmt.Errorf("client: sweep %s stream truncated after %d of %d points", id, next, grid.Size())
}

// errorFrom renders the service's uniform {"code","error"} body as an
// error. Spec rejections (HTTP 400) carry the shared bad-input marker,
// so CLI front ends surface them as exit 2, matching local validation.
func (c *Remote) errorFrom(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var ae struct {
		Code string `json:"code"`
		Msg  string `json:"error"`
	}
	var err error
	if json.Unmarshal(body, &ae) == nil && ae.Msg != "" {
		err = fmt.Errorf("client: %s: %s (%s, HTTP %d)", op, ae.Msg, ae.Code, resp.StatusCode)
	} else {
		err = fmt.Errorf("client: %s: HTTP %d", op, resp.StatusCode)
	}
	if resp.StatusCode == http.StatusBadRequest {
		err = cliutil.BadInput(err)
	}
	return err
}

// schemeKindName maps a parametric scheme kind to its spec spelling.
func schemeKindName(k core.Kind) string {
	switch k {
	case core.KindIssueFIFO:
		return "IssueFIFO"
	case core.KindLatFIFO:
		return "LatFIFO"
	case core.KindMixBUFF:
		return "MixBUFF"
	}
	return ""
}

// SpecForJob renders one engine job as an equivalent single-point
// scenario spec — the form a Remote client can submit. Named
// configurations map to a named scheme axis, parametric ones to their
// scheme kind plus queue shape; machine overrides map to single-value
// machine axes. The candidate spec is verified by expansion: it is
// returned only if its one point's structural identity (Job.Key) matches
// the input exactly, so a remote run simulates precisely the requested
// job or fails loudly. Jobs with Custom scheme factories are never
// expressible.
func SpecForJob(j Job) (*scenario.Spec, error) {
	if j.Config.Int.Custom != nil || j.Config.FP.Custom != nil {
		return nil, fmt.Errorf("client: %s under %s: custom schemes cannot run remotely", j.Bench, j.Config.Name)
	}
	axes := []scenario.SchemeAxis{{Scheme: j.Config.Name}}
	if kind := schemeKindName(j.Config.FP.Kind); kind != "" {
		ax := scenario.SchemeAxis{
			Scheme:  kind,
			IntQ:    fmt.Sprintf("%dx%d", j.Config.Int.Queues, j.Config.Int.Entries),
			Queues:  []int{j.Config.FP.Queues},
			Entries: []int{j.Config.FP.Entries},
			Distr:   j.Config.DistributedFU,
		}
		if kind == "MixBUFF" {
			ax.Chains = []int{j.Config.FP.Chains}
		}
		axes = append(axes, ax)
	}
	for _, ax := range axes {
		spec := scenario.New("").
			WithBenchmarks(j.Bench).
			WithScheme(ax).
			WithLengths(j.Opt.Warmup, j.Opt.Instructions)
		if j.Seed != 0 {
			spec.WithSeeds(j.Seed)
		}
		applyMachineAxes(spec, j.Machine)
		grid, err := spec.Expand()
		if err != nil || grid.Size() != 1 {
			continue
		}
		if grid.Points[0].Job(spec.Opt()).Key() == j.Key() {
			return spec, nil
		}
	}
	return nil, fmt.Errorf("client: %s under %s is not expressible as a scenario spec", j.Bench, j.Config.Name)
}

// applyMachineAxes maps a machine override's non-zero fields onto
// single-value spec axes. Fields no axis can express (e.g. a dispatch
// width differing from fetch) survive to the Key comparison in
// SpecForJob, which then rejects the spec.
func applyMachineAxes(spec *scenario.Spec, m *engine.Machine) {
	if m == nil {
		return
	}
	if m.ROBSize != 0 {
		spec.WithROB(m.ROBSize)
	}
	if m.FetchWidth != 0 {
		spec.WithFetchWidth(m.FetchWidth)
	}
	if m.IssueWidthInt != 0 {
		spec.WithIssueWidth(m.IssueWidthInt)
	}
	if m.CommitWidth != 0 {
		spec.WithCommitWidth(m.CommitWidth)
	}
	if m.IntALUs != 0 {
		spec.WithIntALUs(m.IntALUs)
	}
	if m.IntMuls != 0 {
		spec.WithIntMuls(m.IntMuls)
	}
	if m.FPAdders != 0 {
		spec.WithFPAdders(m.FPAdders)
	}
	if m.FPMuls != 0 {
		spec.WithFPMuls(m.FPMuls)
	}
	if m.L1DLatency != 0 {
		spec.WithL1DLatency(m.L1DLatency)
	}
	if m.L2Latency != 0 {
		spec.WithL2Latency(m.L2Latency)
	}
	if m.MemLatency != 0 {
		spec.WithMemLatency(m.MemLatency)
	}
	if m.PerfectDisambiguation {
		spec.WithPerfectDisambiguation(true)
	}
}

// compile-time interface check.
var _ Client = (*Remote)(nil)
