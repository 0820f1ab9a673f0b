// Package server exposes a trained HER System over HTTP as JSON
// endpoints — the deployment shape for the paper's real-time VPair use
// case (pay-as-you-go entity resolution) and the interactive feedback
// loop:
//
//	GET  /healthz
//	GET  /spair?rel=item&tuple=0&vertex=12
//	GET  /vpair?rel=item&tuple=0
//	GET  /apair?workers=4
//	GET  /explain?rel=item&tuple=0&vertex=12
//	POST /feedback     [{"rel":"item","tuple":0,"vertex":12,"match":true}]
//	GET  /stats
//	GET  /metrics      (Prometheus text exposition)
//
// The matching endpoints (/spair, /vpair, /apair) honor a server-level
// Deadline plus an optional timeout_ms query parameter (the smaller
// wins) and answer 503 when the budget expires before matching
// finishes. Because the sequential matcher cannot be interrupted, an
// expired request abandons its matcher goroutine; MaxInflight bounds
// how many sequential matches (live or abandoned) may exist at once and
// sheds the excess with 429 + Retry-After, mirroring the shard engine's
// admission control.
//
// NewSharded builds the server in sharded mode: /vpair and /apair are
// scatter-gathered across an internal/shard engine — partitioned G,
// halo-replicated fragments, per-shard workers with bounded queues and
// a generation-stamped result cache — instead of the single sequential
// matcher. When shard queues are full the request is shed with 429 and
// a Retry-After hint rather than queueing unbounded work. Writes are
// maintained incrementally: the engine replays the system's typed delta
// log against its private snapshots (halo-scoped fragment updates,
// vertex-scoped cache invalidation), so a write retires only the cached
// results it can actually affect and the rest keep serving warm.
//
// Every request passes through an instrumentation middleware that
// records per-endpoint request counts, status codes and latency
// histograms into the system's metrics registry (or a private one when
// the system was built without instrumentation), so /metrics always
// covers the serving path.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"her"
	"her/internal/obs"
	"her/internal/shard"
)

// Server wraps a System with HTTP handlers.
type Server struct {
	sys *her.System
	// engs holds one shard engine per view hosted when NewSharded built
	// the server, keyed by view name; nil in single-system mode.
	engs    map[string]*shard.Engine
	extract extractCache // memoized GET /extract rendering (views.go)
	mux     *http.ServeMux
	reg     *obs.Registry
	// MaxAPairMatches caps the matches returned inline by /apair
	// (default 1000); the full count is always reported.
	MaxAPairMatches int
	// MaxWorkers bounds the workers query parameter of /apair (default
	// 32): a request may not spawn an arbitrary goroutine fleet.
	MaxWorkers int
	// Deadline bounds the matching work of one request (0 = unbounded).
	// The timeout_ms query parameter can only tighten it. Expired
	// requests answer 503.
	Deadline time.Duration
	// MaxInflight bounds concurrent sequential matches, including the
	// abandoned goroutines expired requests leave running (default 64):
	// under sustained load with Deadline shorter than match time they
	// would otherwise pile up without bound behind the System mutex.
	// Saturation sheds with 429 + Retry-After. Set before the first
	// request; the bound latches on first use.
	MaxInflight int
	// Recorder is the always-on flight recorder: every request gets an
	// ID and a root span, and the finished trace is retained when it is
	// among the op's slowest or it errored. New installs one with the
	// default capacities; set nil before serving to disable tracing
	// entirely (requests then pay only nil checks). Serve the retained
	// traces at GET /debug/requests.
	Recorder *obs.FlightRecorder
	// Logger, when set, emits one structured request log line per
	// request (request_id, op, gen, status, duration). Independent of
	// Recorder: either enables root-span tracing.
	Logger *slog.Logger

	reqSeq  atomic.Uint64 // request-ID sequence
	seqOnce sync.Once
	seqSem  chan struct{} // semaphore of MaxInflight sequential-match slots

	// Test seams: when non-nil they replace the matching backends so
	// tests can inject slow or failing matchers without training a
	// system. Production wiring leaves them nil.
	spairFn func(rel string, tuple int, v her.VertexID) (bool, error)
	vpairFn func(rel string, tuple int) ([]her.Pair, error)
	apairFn func(workers int) ([]her.Pair, her.ParallelStats, error)
}

// New builds the handler around a trained system. HTTP metrics land in
// the system's registry when it has one, so core/bsp and serving
// metrics share one /metrics page; otherwise a server-private registry
// still captures the HTTP side.
func New(sys *her.System) *Server {
	reg := sys.Metrics()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{sys: sys, mux: http.NewServeMux(), reg: reg, MaxAPairMatches: 1000, MaxWorkers: 32,
		Recorder: obs.NewFlightRecorder(0, 0)}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/spair", s.handleSPair)
	s.mux.HandleFunc("/vpair", s.handleVPair)
	s.mux.HandleFunc("/apair", s.handleAPair)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/feedback", s.handleFeedback)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/views", s.handleViews)
	s.mux.HandleFunc("/extract", s.handleExtract)
	return s
}

// NewSharded builds the server in sharded serving mode: /vpair and
// /apair route through a shard.Engine over the system's graphs.
//
// Read-your-writes semantics: a request that starts after a mutation
// returns never observes pre-mutation results. The engine keys its
// cache on the system's generation counter and, before reading the
// cache, replays the system's typed delta log against its private
// snapshots — incremental writes (AddTuple, AddGraphVertex,
// AddGraphEdge) update only the fragments whose halo regions contain
// the touched vertices and evict only the cached entries whose key
// vertices fall inside an affected halo; non-incremental changes
// (feedback, retraining, thresholds) poison the log and force a full
// rebuild. Either way no stale entry survives a write it depends on,
// while unaffected entries keep serving without recomputation.
// Call Close to stop the shard workers.
func NewSharded(sys *her.System, shards int) (*Server, error) {
	s := New(sys)
	s.engs = make(map[string]*shard.Engine)
	// Every view present now gets its own engine over the view's
	// ShardConfig — its own snapshots, generation anchor and delta log.
	for _, name := range sys.ViewNames() {
		vh, err := sys.View(name)
		var eng *shard.Engine
		if err == nil {
			eng, err = shard.NewEngine(vh.ShardConfig(shards))
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		s.engs[name] = eng
	}
	return s, nil
}

// Engine exposes the direct view's sharded engine (nil in single-system
// mode).
func (s *Server) Engine() *shard.Engine { return s.engs[her.DirectViewName] }

// Close stops the shard workers of every view; a no-op in single-system
// mode.
func (s *Server) Close() {
	for _, eng := range s.engs {
		eng.Close()
	}
}

// Metrics returns the registry the server records HTTP metrics into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// reqContext derives the request's matching budget from the server
// Deadline and the optional timeout_ms parameter; the smaller wins.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.Deadline
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad timeout_ms parameter %q", q)
		}
		if qd := time.Duration(ms) * time.Millisecond; d == 0 || qd < d {
			d = qd
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// seqSlots returns the sequential-match semaphore, sizing it from
// MaxInflight on first use.
func (s *Server) seqSlots() chan struct{} {
	s.seqOnce.Do(func() {
		n := s.MaxInflight
		if n <= 0 {
			n = 64
		}
		s.seqSem = make(chan struct{}, n)
	})
	return s.seqSem
}

// runSeq executes fn — a System call without context support — on its
// own goroutine and waits for the result or the context: the sequential
// matcher cannot be interrupted, so an expired request abandons the
// goroutine (it finishes in the background and its result is dropped).
// sem bounds how many such goroutines, live or abandoned, exist at once;
// when no slot is free the request is shed immediately with
// shard.ErrOverloaded (HTTP 429) instead of queueing behind the System
// mutex.
func runSeq[T any](ctx context.Context, sem chan struct{}, fn func() T) (T, error) {
	var zero T
	select {
	case sem <- struct{}{}:
	default:
		return zero, shard.ErrOverloaded
	}
	done := make(chan T, 1)
	go func() {
		defer func() { <-sem }()
		done <- fn()
	}()
	select {
	case v := <-done:
		return v, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// writeMatchErr maps matching-path failures onto transport semantics:
// shed load is 429 with a Retry-After hint, an expired budget is 503,
// anything else uses the endpoint's fallback status.
func writeMatchErr(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, shard.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, fallback, err)
	}
}

// knownEndpoints bounds the cardinality of the op label: paths outside
// this set are recorded as "other".
var knownEndpoints = map[string]bool{
	"/healthz": true, "/spair": true, "/vpair": true, "/apair": true,
	"/explain": true, "/feedback": true, "/stats": true, "/metrics": true,
	"/debug/requests": true, "/views": true, "/extract": true,
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: the instrumentation middleware
// wrapping the mux. When tracing is on (Recorder or Logger set) it
// assigns the request an ID, installs a root span on the request
// context — every layer below picks it up via obs.SpanFrom — and, once
// the handler returns, records the finished trace and emits the
// structured request log line. With both off, a request pays two map
// lookups and two nil checks beyond the metrics it always paid.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	op := r.URL.Path
	if !knownEndpoints[op] {
		op = "other"
	}
	sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

	var sp *obs.Span
	var id string
	gen := s.sys.Generation()
	if s.Recorder != nil || s.Logger != nil {
		id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		sp = obs.StartSpan(op)
		sp.SetAttr("gen", strconv.FormatUint(gen, 10))
		sr.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithSpan(r.Context(), sp))
	}
	s.mux.ServeHTTP(sr, r)

	s.reg.Counter(fmt.Sprintf(`her_http_requests_total{op=%q,code="%d"}`,
		op, sr.status)).Inc()
	s.reg.Histogram(fmt.Sprintf(`her_http_request_seconds{op=%q,code="%d"}`,
		op, sr.status), obs.TimeBuckets).ObserveSince(t0)

	if sp != nil {
		var errMsg string
		if sr.status >= 400 {
			errMsg = fmt.Sprintf("HTTP %d", sr.status)
			sp.SetError(errors.New(errMsg))
		}
		sp.End()
		s.Recorder.Record(id, op, sp, errMsg)
		if s.Logger != nil {
			s.Logger.Info("request",
				"request_id", id,
				"op", op,
				"gen", gen,
				"status", sr.status,
				"duration", time.Since(t0))
		}
	}
}

// handleDebugRequests serves the flight recorder: every retained trace,
// or one trace by its request ID (?id=req-000042). 404 when tracing is
// disabled or the ID fell out of retention.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.Recorder == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("tracing disabled"))
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr, ok := s.Recorder.ByID(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", id))
			return
		}
		writeJSON(w, http.StatusOK, tr)
		return
	}
	traces := s.Recorder.Traces()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":  len(traces),
		"traces": traces,
	})
}

// handleMetrics serves the Prometheus text exposition of every metric
// recorded so far (HTTP, core matcher phases, BSP engine).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// pairParams parses rel/tuple(/vertex) query parameters.
func pairParams(r *http.Request, needVertex bool) (rel string, tuple int, vertex her.VertexID, err error) {
	rel = r.URL.Query().Get("rel")
	if rel == "" {
		return "", 0, 0, fmt.Errorf("missing rel parameter")
	}
	tuple, err = strconv.Atoi(r.URL.Query().Get("tuple"))
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad tuple parameter: %v", err)
	}
	if needVertex {
		v, err := strconv.Atoi(r.URL.Query().Get("vertex"))
		if err != nil {
			return "", 0, 0, fmt.Errorf("bad vertex parameter: %v", err)
		}
		vertex = her.VertexID(v)
	}
	return rel, tuple, vertex, nil
}

//herlint:hot
func (s *Server) handleSPair(w http.ResponseWriter, r *http.Request) {
	rel, tuple, vertex, err := pairParams(r, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	vh, err := s.viewParam(r, "/spair")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !s.sys.GraphValid(vertex) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown vertex %d", vertex))
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	spair := s.spairFn
	if spair == nil {
		spair = vh.SPair
	}
	type res struct {
		match bool
		err   error
	}
	out, err := runSeq(ctx, s.seqSlots(), func() res {
		m, e := spair(rel, tuple, vertex)
		return res{match: m, err: e}
	})
	if err == nil {
		err = out.err
	}
	if err != nil {
		writeMatchErr(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"rel": rel, "tuple": tuple, "vertex": vertex, "match": out.match,
	})
}

type matchJSON struct {
	Vertex int32  `json:"vertex"`
	Label  string `json:"label"`
}

// vpairMatches routes a VPair request to the configured backend: the
// test seam, the view's sharded engine, or the sequential view call
// wrapped in the deadline runner.
func (s *Server) vpairMatches(ctx context.Context, vh *her.ViewHandle, rel string, tuple int) ([]her.Pair, error) {
	if s.vpairFn != nil {
		type res struct {
			pairs []her.Pair
			err   error
		}
		out, err := runSeq(ctx, s.seqSlots(), func() res {
			p, e := s.vpairFn(rel, tuple)
			return res{pairs: p, err: e}
		})
		if err != nil {
			return nil, err
		}
		return out.pairs, out.err
	}
	sp := obs.SpanFrom(ctx)
	if eng := s.engs[vh.Name()]; eng != nil {
		rsp := sp.Child("resolve")
		u, err := vh.TupleVertex(rel, tuple)
		rsp.End()
		if err != nil {
			return nil, err
		}
		return eng.VPair(ctx, u)
	}
	type res struct {
		pairs []her.Pair
		err   error
	}
	out, err := runSeq(ctx, s.seqSlots(), func() res {
		p, e := vh.VPairTraced(rel, tuple, sp)
		return res{pairs: p, err: e}
	})
	if err != nil {
		return nil, err
	}
	return out.pairs, out.err
}

//herlint:hot
func (s *Server) handleVPair(w http.ResponseWriter, r *http.Request) {
	rel, tuple, _, err := pairParams(r, false)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	vh, err := s.viewParam(r, "/vpair")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	matches, err := s.vpairMatches(ctx, vh, rel, tuple)
	if err != nil {
		writeMatchErr(w, err, http.StatusNotFound)
		return
	}
	rsp := obs.SpanFrom(ctx).Child("render")
	out := make([]matchJSON, 0, len(matches))
	for _, m := range matches {
		out = append(out, matchJSON{Vertex: int32(m.V), Label: s.sys.GraphLabel(m.V)})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"rel": rel, "tuple": tuple, "matches": out,
	})
	rsp.End()
}

//herlint:hot
func (s *Server) handleAPair(w http.ResponseWriter, r *http.Request) {
	workers := 1
	if q := r.URL.Query().Get("workers"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad workers parameter %q", q))
			return
		}
		if n > s.MaxWorkers {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("workers %d exceeds the limit of %d", n, s.MaxWorkers))
			return
		}
		workers = n
	}
	vh, err := s.viewParam(r, "/apair")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var matches []her.Pair
	var statsOut map[string]interface{}
	if eng := s.engs[vh.Name()]; eng != nil && s.apairFn == nil {
		// Sharded: the view's engine scatter-gathers over its fixed
		// shard workers; the workers parameter does not apply.
		matches, err = eng.APair(ctx, vh.SourceVertices())
		if err != nil {
			writeMatchErr(w, err, http.StatusInternalServerError)
			return
		}
		info := eng.Snapshot()
		statsOut = map[string]interface{}{
			"shards":     info.Shards,
			"haloRadius": info.HaloRadius,
			"generation": info.Generation,
		}
	} else {
		apair := s.apairFn
		if apair == nil {
			apair = func(n int) ([]her.Pair, her.ParallelStats, error) {
				return vh.APairParallel(n)
			}
		}
		type res struct {
			pairs []her.Pair
			stats her.ParallelStats
			err   error
		}
		out, rErr := runSeq(ctx, s.seqSlots(), func() res {
			p, st, e := apair(workers)
			return res{pairs: p, stats: st, err: e}
		})
		if rErr == nil {
			rErr = out.err
		}
		if rErr != nil {
			writeMatchErr(w, rErr, http.StatusInternalServerError)
			return
		}
		matches = out.pairs
		statsOut = map[string]interface{}{
			"workers":        out.stats.Workers,
			"supersteps":     out.stats.Supersteps,
			"candidatePairs": out.stats.CandidatePairs,
		}
	}
	statsOut["view"] = vh.Name()
	shown := matches
	if len(shown) > s.MaxAPairMatches {
		shown = shown[:s.MaxAPairMatches]
	}
	type pairJSON struct {
		Tuple  string `json:"tuple"`
		Vertex int32  `json:"vertex"`
	}
	out := make([]pairJSON, 0, len(shown))
	buf := make([]byte, 0, 64) // reused per row instead of Sprintf allocating twice
	for _, m := range shown {
		label := ""
		if ref, ok := vh.TupleOf(m.U); ok {
			buf = append(buf[:0], ref.Relation...)
			buf = append(buf, '/')
			buf = strconv.AppendInt(buf, int64(ref.TupleID), 10)
			label = string(buf)
		}
		out = append(out, pairJSON{Tuple: label, Vertex: int32(m.V)})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":   len(matches),
		"matches": out,
		"stats":   statsOut,
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	rel, tuple, vertex, err := pairParams(r, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	vh, err := s.viewParam(r, "/explain")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !s.sys.GraphValid(vertex) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown vertex %d", vertex))
		return
	}
	u, err := vh.TupleVertex(rel, tuple)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ex, err := vh.Explain(u, vertex)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type lineageJSON struct {
		U string `json:"u"`
		V string `json:"v"`
	}
	var lineage []lineageJSON
	for _, p := range ex.Lineage {
		lineage = append(lineage, lineageJSON{U: vh.GDLabel(p.U), V: s.sys.GraphLabel(p.V)})
	}
	schema := map[string]string{}
	for _, sm := range ex.SchemaMatches {
		schema[sm.Attr] = sm.Rho.LabelString()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"witnessSize":   len(ex.Witness),
		"lineage":       lineage,
		"schemaMatches": schema,
	})
}

// feedbackItem is one user verdict in a POST /feedback body.
type feedbackItem struct {
	Rel    string `json:"rel"`
	Tuple  int    `json:"tuple"`
	Vertex int32  `json:"vertex"`
	Match  bool   `json:"match"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var items []feedbackItem
	if err := json.NewDecoder(r.Body).Decode(&items); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	var fb []her.Feedback
	for _, it := range items {
		u, err := s.sys.TupleVertex(it.Rel, it.Tuple)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if !s.sys.GraphValid(her.VertexID(it.Vertex)) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown vertex %d", it.Vertex))
			return
		}
		fb = append(fb, her.Feedback{
			Pair:    her.Pair{U: u, V: her.VertexID(it.Vertex)},
			IsMatch: it.Match,
		})
	}
	s.sys.Refine(fb)
	writeJSON(w, http.StatusOK, map[string]int{"applied": len(fb), "overrides": s.sys.Overrides()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sys.Stats()
	th := s.sys.Thresholds()
	out := map[string]interface{}{
		"thresholds": map[string]interface{}{"sigma": th.Sigma, "delta": th.Delta, "k": th.K},
		"matcher": map[string]int{
			"calls": st.Calls, "cacheHits": st.CacheHits,
			"cleanups": st.Cleanups, "rechecks": st.Rechecks,
		},
	}
	if eng := s.Engine(); eng != nil {
		out["shard"] = eng.Snapshot()
	}
	out["views"] = s.viewStats()
	if ps, ok := s.sys.LastParallelStats(); ok {
		stepMillis := make([]float64, len(ps.SuperstepDurations))
		for i, d := range ps.SuperstepDurations {
			stepMillis[i] = float64(d) / float64(time.Millisecond)
		}
		out["parallel"] = map[string]interface{}{
			"workers":         ps.Workers,
			"supersteps":      ps.Supersteps,
			"requests":        ps.Requests,
			"invalidations":   ps.Invalidations,
			"candidatePairs":  ps.CandidatePairs,
			"perWorkerPairs":  ps.PerWorkerPairs,
			"perWorkerCalls":  ps.PerWorkerCalls,
			"calls":           ps.Calls,
			"superstepMillis": stepMillis,
			"wallMillis":      float64(ps.WallTime) / float64(time.Millisecond),
		}
	}
	writeJSON(w, http.StatusOK, out)
}
