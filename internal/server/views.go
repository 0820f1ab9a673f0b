package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"

	"her"
)

// This file serves the hosted graph views (her/viewapi.go) over HTTP.
// The matching endpoints accept a view= query parameter addressing the
// query at a named view's extraction ("" and "direct" are the built-in
// canonical mapping; an unknown name is 404). Two endpoints are
// view-specific:
//
//	GET /views                 — list hosted views (name, rules, |V|, |E|, generation)
//	GET /extract?view=<name>   — the view's materialized graph as TSV
//
// In sharded mode every view present at construction, direct included,
// gets its own shard.Engine over the view's ShardConfig — anchored to
// the view's generation counter and delta log — so /vpair and /apair
// scatter-gather alike for every view. Views installed after NewSharded
// fall back to the sequential path (/apair: the view's BSP run).

// viewParam resolves the request's view= parameter to a handle; the
// empty value names the direct view. The her_view_requests_total
// counter attributes the request to the resolved view.
func (s *Server) viewParam(r *http.Request, op string) (*her.ViewHandle, error) {
	name := r.URL.Query().Get("view")
	vh, err := s.sys.View(name)
	if err != nil {
		return nil, err
	}
	s.reg.Counter(fmt.Sprintf(`her_view_requests_total{view=%q,op=%q}`, vh.Name(), op)).Inc()
	return vh, nil
}

// extractReq keys the extract cache. The view name can never be elided:
// two views at the same generation are different graphs, so a key
// missing either field would serve one view's bytes for another.
//
//herlint:keyed extractKey
type extractReq struct {
	view string
	gen  uint64
}

// extractKey builds the extract-cache key from everything that
// determines the response bytes: the view identity and its mutation
// generation.
func extractKey(view string, gen uint64) extractReq {
	return extractReq{view: view, gen: gen}
}

// extractCache memoizes the most recent TSV rendering per server: one
// entry, keyed by (view, generation), is enough to absorb polling on a
// quiet system while any mutation or view switch naturally invalidates.
type extractCache struct {
	mu   sync.Mutex
	key  extractReq
	ok   bool
	data []byte
}

// handleViews lists the hosted views.
func (s *Server) handleViews(w http.ResponseWriter, _ *http.Request) {
	names := s.sys.ViewNames()
	infos := make([]her.ViewInfo, 0, len(names))
	for _, name := range names {
		vh, err := s.sys.View(name)
		if err != nil {
			continue // racing a concurrent removal is benign: skip
		}
		infos = append(infos, vh.Info())
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count": len(infos),
		"views": infos,
	})
}

// handleExtract serves a view's materialized graph as TSV, memoized per
// (view, generation) so repeated polls of an unchanged view render once.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	vh, err := s.viewParam(r, "/extract")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	k := extractKey(vh.Name(), vh.Generation())
	s.extract.mu.Lock()
	if s.extract.ok && s.extract.key == k {
		data := s.extract.data
		s.extract.mu.Unlock()
		writeTSV(w, data)
		return
	}
	s.extract.mu.Unlock()
	var buf bytes.Buffer
	if err := vh.WriteTSV(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	data := buf.Bytes()
	s.extract.mu.Lock()
	s.extract.key, s.extract.data, s.extract.ok = k, data, true
	s.extract.mu.Unlock()
	writeTSV(w, data)
}

func writeTSV(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	_, _ = w.Write(data)
}

// viewStats assembles the per-view /stats section.
func (s *Server) viewStats() []map[string]interface{} {
	names := s.sys.ViewNames()
	out := make([]map[string]interface{}, 0, len(names))
	for _, name := range names {
		vh, err := s.sys.View(name)
		if err != nil {
			continue
		}
		info := vh.Info()
		entry := map[string]interface{}{
			"name":       info.Name,
			"rules":      info.Rules,
			"vertices":   info.Vertices,
			"edges":      info.Edges,
			"tuples":     info.Tuples,
			"generation": info.Generation,
			"sharded":    s.engs[name] != nil,
		}
		out = append(out, entry)
	}
	return out
}
