package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// testTree keeps handler tests fast: one small experiment, one seed,
// quarter scale, HTML on.
func testTree(t *testing.T) *report.Tree {
	t.Helper()
	reg, err := experiments.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	tree, err := report.Generate(reg, report.Options{IDs: []string{"E01"}, Seeds: []int64{1}, Scale: 0.25, HTML: true})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tree
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestServedBytesMatchOffline pins the byte-identity acceptance
// criterion: what the service streams equals the offline report tree for
// the same scenario.
func TestServedBytesMatchOffline(t *testing.T) {
	offline := testTree(t)
	h := Handler(testTree(t))
	if err := offline.Walk(func(f report.File) error {
		rec := get(t, h, "/report/"+f.Path)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("/report/%s: %d", f.Path, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), f.Data) {
			return fmt.Errorf("/report/%s differs from offline tree", f.Path)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

// TestRoutes covers the route surface: index aliases, per-experiment
// pages, content types, unknown artifacts.
func TestRoutes(t *testing.T) {
	h := Handler(testTree(t))

	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
	index := get(t, h, "/report")
	if ct := index.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("/report content type = %q", ct)
	}
	alias := get(t, h, "/report/index.html")
	if !bytes.Equal(alias.Body.Bytes(), index.Body.Bytes()) {
		t.Errorf("/report and /report/index.html disagree")
	}
	man := get(t, h, "/report/manifest.json")
	if man.Code != http.StatusOK || man.Header().Get("Content-Type") != "application/json" {
		t.Errorf("/report/manifest.json = %d %q", man.Code, man.Header().Get("Content-Type"))
	}
	page := get(t, h, "/experiments/e01")
	if page.Code != http.StatusOK || !bytes.Contains(page.Body.Bytes(), []byte("<html")) {
		t.Errorf("/experiments/e01 = %d", page.Code)
	}
	if rec := get(t, h, "/report/no-such-file"); rec.Code != http.StatusNotFound {
		t.Errorf("/report/no-such-file = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/experiments/E99"); rec.Code >= 200 && rec.Code < 300 {
		t.Errorf("/experiments/E99 = %d, want failure", rec.Code)
	}
}
