// Package serve exposes one generated report tree over HTTP. The caller
// generates the tree (with HTML on) before it starts listening, so every
// response streams bytes already in memory and equals the offline
// `decentsim report -html` tree for the same scenario. To serve another
// scenario, generate another tree.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/report"
)

// Handler returns the HTTP API over tree:
//
//	GET /healthz             liveness probe
//	GET /report              the tree's index.html
//	GET /report/{path...}    any artifact of the tree
//	GET /experiments/{id}    the per-experiment HTML page
//
// Unknown artifacts are a 404.
func Handler(tree *report.Tree) http.Handler {
	artifact := func(w http.ResponseWriter, path string) {
		rd, ok := tree.Open(path)
		if !ok {
			http.Error(w, fmt.Sprintf("no artifact %q in the report tree", path), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", contentType(path))
		io.Copy(w, rd)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /report", func(w http.ResponseWriter, r *http.Request) {
		artifact(w, "index.html")
	})
	mux.HandleFunc("GET /report/{path...}", func(w http.ResponseWriter, r *http.Request) {
		path := r.PathValue("path")
		if path == "" {
			path = "index.html"
		}
		artifact(w, path)
	})
	mux.HandleFunc("GET /experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		artifact(w, "experiments/"+strings.ToUpper(r.PathValue("id"))+".html")
	})
	return mux
}

// contentType maps artifact extensions to media types; report trees hold
// a small closed set.
func contentType(path string) string {
	switch {
	case strings.HasSuffix(path, ".html"):
		return "text/html; charset=utf-8"
	case strings.HasSuffix(path, ".json"):
		return "application/json"
	case strings.HasSuffix(path, ".svg"):
		return "image/svg+xml"
	case strings.HasSuffix(path, ".md"):
		return "text/markdown; charset=utf-8"
	case strings.HasSuffix(path, ".csv"):
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}
