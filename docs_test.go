package distiq_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"distiq"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// TestDocsRelativeLinks is the docs gate: every relative link in the
// repo's markdown (README plus docs/) must point at a file or directory
// that exists, so the documentation cannot silently rot as files move.
// External links are not fetched (CI must not depend on the network).
func TestDocsRelativeLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 3 {
		t.Fatalf("expected README.md plus at least docs/ARCHITECTURE.md and docs/API.md, found %v", files)
	}

	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Dir(file)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // same-file anchor
			}
			if _, err := os.Stat(filepath.Join(base, target)); err != nil {
				t.Errorf("%s: broken relative link %q", file, m[1])
			}
		}
	}
}

// apiRoute matches a route heading of docs/API.md: ### `METHOD /path`.
var apiRoute = regexp.MustCompile("(?m)^### `([A-Z]+) (/[^`]*)`")

// TestDocsRoutes keeps docs/API.md in step with the service: every route
// it documents answers on a live server, so a route cannot be removed
// or renamed while its section stays. The one POST route refuses the
// empty spec with 400.
func TestDocsRoutes(t *testing.T) {
	doc, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	routes := apiRoute.FindAllStringSubmatch(string(doc), -1)
	if len(routes) == 0 {
		t.Fatal("no ### `METHOD /path` route headings in docs/API.md")
	}
	ts := httptest.NewServer(distiq.NewServer(distiq.ServerConfig{Parallel: 1}))
	defer ts.Close()
	for _, m := range routes {
		method, path := m[1], m[2]
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch code := resp.StatusCode; {
		case code == http.StatusNotFound || code == http.StatusMethodNotAllowed:
			t.Errorf("%s %s: documented, but the server answers %d", method, path, code)
		case method == http.MethodPost && code != http.StatusBadRequest:
			t.Errorf("%s %s with an empty body: status %d, want 400", method, path, code)
		}
	}
}

// TestDocsMentionEveryCommand keeps the README's command table in sync
// with cmd/: a new command must be documented.
func TestDocsMentionEveryCommand(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !strings.Contains(string(readme), "cmd/"+e.Name()) {
			t.Errorf("README.md does not mention cmd/%s", e.Name())
		}
	}
}
