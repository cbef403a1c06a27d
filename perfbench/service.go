package main

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distiq/internal/blobstore"
	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/scenario"
	"distiq/internal/serve"
	"distiq/internal/sim"
)

// service-mixed: a distiqd server (serve.New) on a loopback listener in
// this process, backed by an fs: store in a fresh directory pre-filled
// during set-up, under a closed loop of one client.Remote caller per CPU.
// Each request is a 1–8-point sweep at QuickOptions length. One request
// in coldEvery uses a replication seed never used before, so it simulates
// and writes; the rest are warm points already in the store. That 9:1
// warm:cold mix is an assumption: no usage log exists to derive it from.
var serviceMixed = workload{
	name:  "service-mixed",
	setup: setupService,
}

var (
	poolBenches = []string{"gcc", "mcf", "swim", "art"}
	// poolSeeds is how many replication seeds the pre-filled pool holds.
	poolSeeds = 4
	// svcAxes are the organizations a request picks its points from.
	svcAxes = []scenario.SchemeAxis{
		{Scheme: "IQ_64_64"},
		{Scheme: "IF_distr"},
		{Scheme: "MB_distr"},
		{Scheme: "IQ_unbounded"},
		{Scheme: "IssueFIFO", Queues: []int{4}, Entries: []int{16}},
		{Scheme: "LatFIFO", Queues: []int{8}, Entries: []int{16}},
		{Scheme: "MixBUFF", Queues: []int{8}, Entries: []int{8}},
		{Scheme: "MixBUFF", Queues: []int{8}, Entries: []int{16}, Chains: []int{2}, Distr: true},
	}
)

// coldEvery makes one request in ten cold: about nine warm points per
// cold one.
const coldEvery = 10

// svcOpt sizes every service point.
func svcOpt() engine.Options { return sim.QuickOptions() }

// svcSpec is one request's spec.
func svcSpec(bench string, axes []scenario.SchemeAxis, seeds ...uint64) *scenario.Spec {
	opt := svcOpt()
	spec := scenario.New("perfbench-service").WithBenchmarks(bench).WithLengths(opt.Warmup, opt.Instructions)
	for _, ax := range axes {
		spec.WithScheme(ax)
	}
	if len(seeds) > 1 || seeds[0] != 0 {
		spec.WithSeeds(seeds...)
	}
	return spec
}

// poolSeedList is the replication seeds of a variant's warm pool.
func poolSeedList(seed uint64, variant int) []uint64 {
	seeds := make([]uint64, poolSeeds)
	for j := range seeds {
		seeds[j] = derive(seed, uint64(variant)<<8|uint64(j))
	}
	return seeds
}

// poolGrid is a variant's warm pool: every benchmark, axis and pool
// seed, in expansion order per benchmark.
func poolGrid(seed uint64, variant int) *scenario.Grid {
	g := &scenario.Grid{}
	for _, b := range poolBenches {
		sub, err := svcSpec(b, svcAxes, poolSeedList(seed, variant)...).Expand()
		if err != nil {
			panic(err) // a fixed, valid spec
		}
		g.Spec = sub.Spec
		g.Points = append(g.Points, sub.Points...)
	}
	return g
}

type svcSession struct {
	seed    uint64
	workers int
	dir     string
	pool    []engine.Result
	// want maps a warm point's job key to its pre-filled result digest.
	want      map[string]string
	poolSeeds []uint64

	srv    *serve.Server
	hs     *http.Server
	served chan error
	remote *client.Remote
	store  *timingStore
	trans  *timingTransport

	windows int
	// coldN counts each caller's cold requests, so every cold seed is new.
	coldN []uint64
	// sample is one cold point delivered, for the uncached check.
	sampleMu  sync.Mutex
	sampleJob engine.Job
	sample    *engine.Result
}

// setupService creates a store directory, pre-fills it with the warm pool
// through a Local client on the same fs: backend, and starts the server
// on a loopback listener.
func setupService(cfg *runConfig, variant int) (session, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &svcSession{
		seed: cfg.seed, workers: cfg.workers, dir: dir,
		poolSeeds: poolSeedList(cfg.seed, variant),
		want:      map[string]string{},
		coldN:     make([]uint64, cfg.workers),
	}
	fail := func(err error) (session, error) {
		s.close()
		return nil, err
	}
	grid := poolGrid(cfg.seed, variant)
	pre, err := engine.OpenStore("fs:" + dir)
	if err != nil {
		return fail(err)
	}
	results, err := client.NewLocal(client.WithParallel(cfg.workers), client.WithStore(pre)).
		RunAll(context.Background(), grid.Jobs())
	if cerr := pre.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	s.pool = results
	for i, j := range grid.Jobs() {
		s.want[j.Key()] = digest(results[i : i+1])
	}

	if err := s.start(); err != nil {
		return fail(err)
	}
	return s, nil
}

// start serves a fresh server over the store directory on a loopback
// listener and points a Remote client at it.
func (s *svcSession) start() error {
	st, err := engine.OpenStore("fs:" + s.dir)
	if err != nil {
		return err
	}
	s.store = &timingStore{inner: st}
	s.srv = serve.New(serve.Config{Parallel: s.workers, Store: s.store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.srv = nil
		return err
	}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	hc := blobstore.NewHTTPClient(0)
	s.trans = &timingTransport{inner: hc.Transport}
	hc.Transport = s.trans
	s.remote = client.NewRemote("http://"+ln.Addr().String(), client.WithHTTPClient(hc))
	if !s.remote.Healthy(context.Background()) {
		return errors.New("service did not become healthy")
	}
	return nil
}

// stop shuts the server down, waits for it, and closes its store.
func (s *svcSession) stop() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{s.hs.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.srv.Drain(ctx), s.srv.Close())
	s.srv = nil
	return errors.Join(errs...)
}

// request is one caller's next sweep.
type request struct {
	bench string
	axes  []scenario.SchemeAxis
	seed  uint64
	cold  bool
}

// caller is one closed-loop client's request generator. The mix is
// stratified so that a run's load does not hinge on its draws: every
// coldEvery-th request is cold, and each block of len(svcAxes) requests
// takes every size 1..len(svcAxes) once, in seeded order.
type caller struct {
	id    int
	rng   *rand.Rand
	n     int   // requests generated
	sizes []int // the current block's remaining sizes
}

func (s *svcSession) nextRequest(c *caller) request {
	if len(c.sizes) == 0 {
		c.sizes = c.rng.Perm(len(svcAxes))
	}
	k := 1 + c.sizes[0]
	c.sizes = c.sizes[1:]
	idx := c.rng.Perm(len(svcAxes))[:k]
	sort.Ints(idx)
	req := request{bench: poolBenches[c.rng.IntN(len(poolBenches))]}
	for _, i := range idx {
		req.axes = append(req.axes, svcAxes[i])
	}
	c.n++
	if c.n%coldEvery == 0 {
		req.cold = true
		s.coldN[c.id]++
		req.seed = derive(s.seed, 1<<40|uint64(c.id)<<32|s.coldN[c.id])
	} else {
		req.seed = s.poolSeeds[c.rng.IntN(len(s.poolSeeds))]
	}
	return req
}

func (s *svcSession) window(ctx context.Context, d time.Duration, tr *tracer) (windowStats, error) {
	// Every window starts on a fresh server over the pre-filled store,
	// so its warm points are first read from the store, then from the
	// server engine's memory, as in a newly started distiqd.
	if s.windows > 0 {
		if err := s.stop(); err != nil {
			return windowStats{}, err
		}
		if err := s.start(); err != nil {
			return windowStats{}, err
		}
	}
	s.windows++
	s.store.tr.Store(tr)
	s.trans.tr.Store(tr)
	defer s.store.tr.Store(nil)
	defer s.trans.tr.Store(nil)
	var (
		mu sync.Mutex
		ws windowStats
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	opt := svcOpt()
	for c := 0; c < s.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &caller{id: c, rng: rand.New(rand.NewPCG(s.seed, uint64(s.windows)<<16|uint64(c)))}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req := s.nextRequest(cl)
				rid := tr.id()
				t0 := time.Now()
				grid, err := svcSpec(req.bench, req.axes, req.seed).Expand()
				t1 := time.Now()
				tr.record("scenario.Expand", rid, t0, t1)
				if err != nil {
					mu.Lock()
					ws.fail(len(req.axes), err)
					mu.Unlock()
					continue
				}
				var (
					n, bad int
					insts  uint64
					first  time.Duration
				)
				st := s.remote.Sweep(context.WithValue(ctx, parentSpan{}, rid), grid)
				for st.Next() {
					u := st.Update()
					if n == 0 {
						first = time.Since(t1)
					}
					n++
					job := u.Point.Job(opt)
					if req.cold && n == 1 {
						s.setSample(job, u.Result)
					} else if !req.cold && s.want[job.Key()] != digest([]engine.Result{u.Result}) {
						bad++
					}
					if u.Source == engine.SourceSimulated {
						insts += u.Result.Insts
					}
				}
				t2 := time.Now()
				tr.recordAs(rid, "request", 0, t1, t2)
				mu.Lock()
				ws.points += n
				ws.mismatches += bad
				ws.simInsts += insts
				if err := st.Err(); err != nil {
					ws.fail(grid.Size()-n, err)
				} else {
					ws.requests = append(ws.requests, t2.Sub(t1))
					ws.firstPoint = append(ws.firstPoint, first)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ws.wall = time.Since(start)
	return ws, nil
}

// setSample keeps the first cold point any caller delivered.
func (s *svcSession) setSample(job engine.Job, r engine.Result) {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	if s.sample == nil {
		s.sampleJob, s.sample = job, &r
	}
}

func (s *svcSession) digest() string { return digest(s.pool) }

func (s *svcSession) modelResults() []engine.Result { return s.pool }

// verify checks the pre-filled pool against the pinned digest (warm
// points delivered over HTTP were already compared with it point by
// point) and re-simulates one cold point uncached.
func (s *svcSession) verify(cfg *runConfig) []check {
	var checks []check
	if cfg.pinned != "" {
		checks = append(checks, pinCheck(s.digest(), cfg.pinned))
	}
	if s.sample == nil {
		return append(checks, check{Name: "uncached-sample", Detail: "no cold point in the window; lengthen --seconds"})
	}
	return append(checks, uncachedCheck(s.sampleJob, *s.sample))
}

func (s *svcSession) layerMetrics(_ context.Context, cfg *runConfig, m metrics, tr *tracer, traced windowStats) error {
	m.set("store.get_us_p50", "us", median(tr.durations("store.Get", 1e6)))
	m.set("store.get_us_p99", "us", quantile(tr.durations("store.Get", 1e6), 0.99))
	m.set("store.put_us_p50", "us", median(tr.durations("store.Put", 1e6)))
	m.set("store.put_us_p99", "us", quantile(tr.durations("store.Put", 1e6), 0.99))
	gets, hits := s.store.gets.Load(), s.store.hits.Load()
	if gets > 0 {
		m.set("store.hit_ratio", "fraction", float64(hits)/float64(gets))
	}
	m.set("scenario.expand_us_p50", "us", median(tr.durations("scenario.Expand", 1e6)))
	m.set("serve.submit_ms_p50", "ms", median(tr.durations("serve.submit", 1e3)))
	m.set("serve.stream_ms_p50", "ms", median(tr.durations("serve.stream", 1e3)))
	engineMetrics(m, simHist(s.srv.Metrics()), cfg.workers, traced.wall)
	series := exposition(s.srv.Metrics())
	m.set("engine.batch_groups", "count", series["distiq_engine_batch_groups_total"])
	m.set("engine.batched_jobs", "count", series["distiq_engine_batch_jobs_total"])
	return nil
}

func (s *svcSession) close() error {
	return errors.Join(s.stop(), os.RemoveAll(s.dir))
}

// timingStore is a ResultStore decorator that records a span per Get and
// Put while a tracer is installed, and counts store hits.
type timingStore struct {
	inner      engine.ResultStore
	tr         atomic.Pointer[tracer]
	gets, hits atomic.Int64
}

func (t *timingStore) Get(fp string, job engine.Job) (engine.Result, bool) {
	tr := t.tr.Load()
	if tr == nil {
		return t.inner.Get(fp, job)
	}
	t0 := time.Now()
	r, ok := t.inner.Get(fp, job)
	tr.record("store.Get", 0, t0, time.Now())
	t.gets.Add(1)
	if ok {
		t.hits.Add(1)
	}
	return r, ok
}

func (t *timingStore) Put(fp string, job engine.Job, r engine.Result) error {
	tr := t.tr.Load()
	if tr == nil {
		return t.inner.Put(fp, job, r)
	}
	t0 := time.Now()
	err := t.inner.Put(fp, job, r)
	tr.record("store.Put", 0, t0, time.Now())
	return err
}

func (t *timingStore) Has(fp string) bool            { return t.inner.Has(fp) }
func (t *timingStore) Raw(fp string) ([]byte, error) { return t.inner.Raw(fp) }
func (t *timingStore) Close() error                  { return t.inner.Close() }

// parentSpan keys the request span id in a request's context, so the
// transport's spans name the request that caused them.
type parentSpan struct{}

// timingTransport records, while a tracer is installed, the submit
// exchange (POST /v1/sweeps until its response headers) and the stream
// exchange (GET .../stream until its body ends).
type timingTransport struct {
	inner http.RoundTripper
	tr    atomic.Pointer[tracer]
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if tr == nil || err != nil {
		return resp, err
	}
	parent, _ := req.Context().Value(parentSpan{}).(int64)
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/sweeps":
		tr.record("serve.submit", parent, t0, time.Now())
	case strings.HasSuffix(req.URL.Path, "/stream"):
		resp.Body = &timedBody{ReadCloser: resp.Body, tr: tr, t0: t0, parent: parent}
	}
	return resp, nil
}

// timedBody records the stream span when the body hits EOF or closes.
type timedBody struct {
	io.ReadCloser
	tr     *tracer
	t0     time.Time
	parent int64
	once   sync.Once
}

func (b *timedBody) end() {
	b.once.Do(func() { b.tr.record("serve.stream", b.parent, b.t0, time.Now()) })
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}
