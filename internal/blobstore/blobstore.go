// Package blobstore holds one forward to client.NewHTTPClient, kept
// only because the benchmark harness still imports it.
//
// Deprecated: use distiq/internal/client.NewHTTPClient.
package blobstore

import (
	"net/http"
	"time"

	"distiq/internal/client"
)

// NewHTTPClient returns client.NewHTTPClient, with each whole exchange
// bounded by timeout when it is positive.
//
// Deprecated: NewHTTPClient exists only because the benchmark harness
// still calls it; it goes away when the benchmark is next redefined.
func NewHTTPClient(timeout time.Duration) *http.Client {
	hc := client.NewHTTPClient()
	if timeout > 0 {
		hc.Timeout = timeout
	}
	return hc
}
