package client

import (
	"net/http"

	"distiq/internal/engine"
)

// Option configures a Client constructor. Options are shared across
// implementations; each constructor reads the ones that apply to it
// (NewLocal ignores WithHTTPClient, NewRemote ignores the engine knobs).
type Option func(*config)

// config collects every constructor knob.
type config struct {
	parallel   int
	cacheDir   string
	store      engine.ResultStore
	progress   func(engine.Progress)
	httpClient *http.Client
}

// WithParallel bounds concurrent simulations of a Local client
// (0 = GOMAXPROCS, 1 = strictly serial).
func WithParallel(n int) Option {
	return func(c *config) { c.parallel = n }
}

// WithCacheDir backs a Local client's engine with the persistent
// distiq-v2 content-addressed store at dir (created lazily), shared
// across processes — including a distiqd pointed at the same directory.
func WithCacheDir(dir string) Option {
	return func(c *config) { c.cacheDir = dir }
}

// WithStore backs a Local client's engine with an explicit result-store
// backend — any engine.ResultStore, such as the filesystem or in-memory
// store (engine.OpenStore builds one from a -store spec string). It
// takes precedence over WithCacheDir. The store is borrowed: the caller
// closes it when done.
func WithStore(st engine.ResultStore) Option {
	return func(c *config) { c.store = st }
}

// WithProgress installs an engine-wide progress callback on a Local
// client, invoked once per resolved job (serialized).
func WithProgress(fn func(engine.Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// WithHTTPClient overrides the http.Client a Remote client speaks
// through. The default (NewHTTPClient) bounds connection setup but
// leaves the whole exchange unbounded (sweep streams outlive any fixed
// timeout); use this for transports, TLS configs or test doubles.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *config) { c.httpClient = hc }
}
