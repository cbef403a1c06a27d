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
	"distiq/internal/scenario"
)

// maxStreamLine bounds one NDJSON stream line; result documents are a
// few kilobytes, so four megabytes is generous.
const maxStreamLine = 4 << 20

// Remote is the Client over a distiqd service: a sweep is one exchange,
// its scenario spec posted to POST /v1/sweeps and its per-point results
// read off the NDJSON stream the service answers with, so many remote
// clients amortize the service's one warm engine. It needs a distiqd
// that streams submissions; an older one answers 202, which Remote
// reports as an error. The stream arrives in grid order straight off the
// wire; results decode to the exact engine.Result the server computed,
// so documents assembled from a Remote sweep are byte-identical to a
// Local sweep of the same grid.
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

// stream drives one sweep exchange: it posts the spec as compact JSON,
// reads the NDJSON stream the service answers with and pushes in-order
// updates onto st.
func (c *Remote) stream(ctx context.Context, grid *scenario.Grid, st *Stream) error {
	data, err := json.Marshal(grid.Spec)
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
			return fmt.Errorf("client: malformed stream event: %w", err)
		}
		switch {
		case ev.Error != "":
			// A Local sweep's error names its point; any other message
			// (an unencodable result's, an older server's) gets the index.
			if strings.HasPrefix(ev.Error, pointErrPrefix) {
				return errors.New(ev.Error)
			}
			return fmt.Errorf("client: sweep failed at point %d: %s", ev.Index, ev.Error)
		case ev.Done:
			if next != grid.Size() {
				return fmt.Errorf("client: sweep stream ended after %d of %d points", next, grid.Size())
			}
			st.setManifest(ev.Manifest)
			return nil
		default:
			if ev.Result == nil || ev.Index != next || next >= grid.Size() {
				return fmt.Errorf("client: out-of-order stream event (index %d, expected %d)", ev.Index, next)
			}
			st.send(Update{Index: next, Point: grid.Points[next], Result: *ev.Result, Source: ev.Source})
			next++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: stream sweep: %w", err)
	}
	return fmt.Errorf("client: sweep stream truncated after %d of %d points", next, grid.Size())
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

// compile-time interface check.
var _ Client = (*Remote)(nil)
