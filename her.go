// Package her implements HER (Heterogeneous Entity Resolution), the
// system of "Linking Entities across Relations and Graphs" (ICDE 2022):
// it links tuples of a relational database D to vertices of a graph G
// that refer to the same real-world entity, via parametric simulation.
//
// A System is assembled from a database and a graph (Fig. 2): the
// RDB2RDF module converts D to a canonical graph G_D — hosted as the
// built-in "direct" graph view, one of possibly many; the Learn module
// trains the parameter functions (M_v, M_ρ, M_r) and selects the
// thresholds (σ, δ, k); and three query modes answer requests:
//
//   - SPair: does tuple t match vertex v?
//   - VPair: all vertices of G matching tuple t.
//   - APair: all matches across D and G, sequentially or in parallel on
//     the BSP engine.
//
// Matches are explainable: Explain returns the witness relation Π, the
// lineage set and the schema matches Γ of a confirmed pair.
package her

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"her/internal/bsp"
	"her/internal/core"
	"her/internal/dataset"
	"her/internal/embed"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/learn"
	"her/internal/lstm"
	"her/internal/obs"
	"her/internal/ranking"
	"her/internal/rdb2rdf"
	"her/internal/relational"
	"her/internal/shard"
	"her/internal/view"
)

// Public aliases so downstream users can name the library's types
// without importing internal packages.
type (
	// VertexID identifies a vertex of G_D or G.
	VertexID = graph.VID
	// Pair is a candidate or confirmed match (U in G_D, V in G).
	Pair = core.Pair
	// TupleRef identifies a tuple of the database.
	TupleRef = rdb2rdf.TupleRef
	// Annotation is a ground-truth labeled pair.
	Annotation = learn.Annotation
	// Feedback is a user-annotated pair from the interaction loop.
	Feedback = learn.Feedback
	// Thresholds bundles (σ, δ, k).
	Thresholds = learn.Thresholds
	// PathPair is an annotated edge-label-sequence pair for training M_ρ.
	PathPair = dataset.PathPair
	// SchemaMatch maps an attribute to the G path encoding it.
	SchemaMatch = core.SchemaMatch
	// ParallelStats reports a parallel APair run.
	ParallelStats = bsp.Stats
	// Counters reports matcher work.
	Counters = core.Counters
	// MetricsRegistry is the observability registry of internal/obs:
	// named counters, gauges and latency histograms with Prometheus
	// text exposition. Install one via Options.Metrics.
	MetricsRegistry = obs.Registry
	// Span is a traced region of work (obs span tracing).
	Span = obs.Span
	// SpanNode is the immutable exported form of a finished span tree.
	SpanNode = obs.SpanNode
	// FlightRecorder retains the slowest and all errored request traces
	// per operation in bounded memory; see internal/obs.
	FlightRecorder = obs.FlightRecorder
	// Trace is one retained request trace: id, op, error and span tree.
	Trace = obs.Trace
)

// NewMetrics creates an empty metrics registry to pass in
// Options.Metrics and to serve at GET /metrics.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// StartSpan opens a root tracing span; see internal/obs.
func StartSpan(name string) *Span { return obs.StartSpan(name) }

// NewFlightRecorder creates a flight recorder retaining, per operation,
// the slowPerOp slowest successful traces and a ring of the errsPerOp
// most recent errored ones (0 picks the defaults of 16 and 64).
func NewFlightRecorder(slowPerOp, errsPerOp int) *FlightRecorder {
	return obs.NewFlightRecorder(slowPerOp, errsPerOp)
}

// WithSpan installs a span on a context for propagation through the
// serving stack; a nil span leaves the context unchanged.
func WithSpan(ctx context.Context, sp *Span) context.Context { return obs.WithSpan(ctx, sp) }

// SpanFrom returns the span installed on ctx, or nil.
func SpanFrom(ctx context.Context) *Span { return obs.SpanFrom(ctx) }

// System is one HER instance over a database D and a graph G.
type System struct {
	opts Options // guarded by mu — SetThresholds and LoadModels mutate it while queries read it

	DB *relational.Database
	// GD and Mapping are the direct view's graph and tuple mapping
	// (Mapping is nil for a System built without a database). They are
	// reassigned under mu whenever the direct view recompiles, so
	// concurrent readers go through the locked accessors (GDLabel,
	// TupleVertex, TupleOf) or the direct view's handle.
	GD      *graph.Graph
	Mapping *view.Mapping
	G       *graph.Graph

	sc      *scorers
	lm      *lstm.Model     // guarded by mu — TrainRanker and LoadModels install a new one
	rankerG *ranking.Ranker // guarded by mu — rebuilt around every new language model

	mu      sync.Mutex      // serializes matching and mutation
	ix      *index.Inverted // guarded by mu — the G-side blocking index, shared by all views
	lastPar *bsp.Stats      // guarded by mu — stats of the most recent parallel APair run

	// views hosts the graph views (viewapi.go), "direct" included; each
	// carries its own G_D-side graph, mapping, matcher, overrides,
	// generation and delta log. Guarded by mu.
	views map[string]*viewState
	// direct addresses the built-in direct view, views["direct"]: the
	// tuple- and vertex-addressed query surface of the System delegates
	// to it. Set at construction, never reassigned.
	direct *ViewHandle
}

// New builds a System from a relational database and a graph. The
// direct view — the RDB2RDF canonical mapping, compiled from
// view.Direct(db) — provides G_D and the tuple mapping f_D.
func New(db *relational.Database, g *graph.Graph, opts Options) (*System, error) {
	if db == nil || g == nil {
		return nil, fmt.Errorf("her: database and graph must be non-nil")
	}
	def := view.Direct(db)
	gd, mapping, err := view.Compile(def, db)
	if err != nil {
		return nil, err
	}
	return newSystem(db, &viewState{def: def, gd: gd, mapping: mapping}, g, opts)
}

// NewFromGraphs builds a System directly over a pre-converted canonical
// graph G_D and a graph G (no tuple-level API in this mode).
func NewFromGraphs(gd, g *graph.Graph, opts Options) (*System, error) {
	if gd == nil || g == nil {
		return nil, fmt.Errorf("her: graphs must be non-nil")
	}
	return newSystem(nil, &viewState{gd: gd}, g, opts)
}

// newSystem assembles a System around its direct view.
func newSystem(db *relational.Database, direct *viewState, g *graph.Graph, opts Options) (*System, error) {
	o := opts.Normalize()
	s := &System{
		opts:    o,
		DB:      db,
		G:       g,
		sc:      newScorers(embed.NewEncoder(o.EmbeddingDim)),
		rankerG: ranking.NewRanker(g, nil, o.MaxPathLen),
	}
	s.buildCandidateGenLocked()
	direct.name = DirectViewName
	if err := s.installViewLocked(direct); err != nil {
		return nil, err
	}
	s.direct = &ViewHandle{sys: s, vs: direct}
	return s, nil
}

// Options returns the normalized options in effect, under the system
// lock — SetThresholds and LoadModels mutate them.
func (s *System) Options() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// paramsLocked assembles the core parameters from the current scorers
// and thresholds. Callers hold s.mu (the thresholds live in s.opts).
func (s *System) paramsLocked() core.Params {
	return core.Params{
		Mv:    s.sc.Mv,
		Mrho:  s.sc.Mrho,
		Sigma: s.opts.Sigma,
		Delta: s.opts.Delta,
		K:     s.opts.K,
	}
}

// buildCandidateGenLocked constructs the blocking inverted index:
// non-leaf vertices of G indexed by their own label plus 1-hop neighbor
// labels ("critical information"), queried with the tuple vertex's
// label plus its attribute values. The index is over G only, so every
// hosted view shares it — each view pairs it with neighborhood docs
// over its own G_D-side graph. Callers hold s.mu (construction-time
// calls own the System exclusively).
func (s *System) buildCandidateGenLocked() {
	s.ix = index.BuildDocs(s.G,
		func(v graph.VID) bool { return !s.G.IsLeaf(v) },
		index.NeighborhoodDoc(s.G))
	for _, vs := range s.views {
		vs.rebuildGenFrom(s.ix, s.opts.MinSharedTokens)
	}
}

// resetMatcherLocked rebuilds every view's matcher around the current
// scorers and thresholds. Every matcher reset is a semantic change (new
// scorers, thresholds or feedback) that can flip verdicts anywhere, so
// each view records a reset delta, which poisons incremental
// maintenance and forces external engines into a full rebuild with
// total cache invalidation. Callers hold s.mu.
func (s *System) resetMatcherLocked() error {
	for _, name := range s.viewNamesLocked() {
		vs := s.views[name]
		if err := s.newMatcherLocked(vs); err != nil {
			return err
		}
		vs.record(shard.Delta{Kind: shard.DeltaReset})
		s.publishViewMetricsLocked(vs)
	}
	return nil
}

// Generation reports the system's mutation generation — the direct
// view's. It changes whenever a match verdict could: incremental
// updates (AddTuple, AddGraphVertex, AddGraphEdge), feedback (Refine),
// retraining and threshold changes all bump it. Safe for concurrent use.
func (s *System) Generation() uint64 { return s.direct.Generation() }

// Metrics returns the registry the system was built with (nil when
// instrumentation is disabled).
func (s *System) Metrics() *MetricsRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.Metrics
}

// ResetMatchState drops all cached match decisions (e.g. after the
// underlying scorers changed).
func (s *System) ResetMatchState() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.resetMatcherLocked()
}

// Thresholds returns the current (σ, δ, k), under the system lock —
// SetThresholds installs new ones concurrently.
func (s *System) Thresholds() Thresholds {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Thresholds{Sigma: s.opts.Sigma, Delta: s.opts.Delta, K: s.opts.K}
}

// SetThresholds installs new thresholds and resets cached decisions.
func (s *System) SetThresholds(th Thresholds) error {
	if th.Sigma < 0 || th.Sigma > 1 || th.Delta < 0 || th.K <= 0 {
		return fmt.Errorf("her: invalid thresholds %+v", th)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.Sigma, s.opts.Delta, s.opts.K = th.Sigma, th.Delta, th.K
	return s.resetMatcherLocked()
}

// TupleOf reports which tuple a G_D vertex canonicalizes (the inverse of
// TupleVertex), under the system lock — safe against concurrent AddTuple.
func (s *System) TupleOf(u VertexID) (TupleRef, bool) { return s.direct.TupleOf(u) }

// GraphValid reports whether v is a vertex of G, under the system lock —
// safe against a concurrent AddGraphVertex growing the vertex table.
func (s *System) GraphValid(v VertexID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.G.Valid(v)
}

// GraphLabel returns the label of G vertex v ("" when v is not a vertex
// of G), under the system lock — the serving path's render-time reads
// run concurrently with incremental updates appending to G.
func (s *System) GraphLabel(v VertexID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.G.Valid(v) {
		return ""
	}
	return s.G.Label(v)
}

// GDLabel returns the label of G_D vertex u ("" when u is not a vertex
// of G_D), under the system lock — AddTuple extends G_D while serving.
func (s *System) GDLabel(u VertexID) string { return s.direct.GDLabel(u) }

// TupleVertex resolves a tuple to its canonical-graph vertex via f_D —
// the public form of the resolution every tuple-addressed query runs.
func (s *System) TupleVertex(rel string, tupleID int) (VertexID, error) {
	return s.direct.TupleVertex(rel, tupleID)
}

// SPair checks whether tuple (rel, tupleID) and vertex v refer to the
// same entity (mode SPair of Fig. 2).
func (s *System) SPair(rel string, tupleID int, v VertexID) (bool, error) {
	return s.direct.SPair(rel, tupleID, v)
}

// SPairVertices is SPair addressed by vertex ids.
func (s *System) SPairVertices(u, v VertexID) bool { return s.direct.spairVertex(u, v) }

// VPair finds all vertices of G matching tuple (rel, tupleID).
func (s *System) VPair(rel string, tupleID int) ([]Pair, error) {
	return s.direct.VPair(rel, tupleID)
}

// VPairVertex is VPair addressed by the tuple's canonical vertex.
func (s *System) VPairVertex(u VertexID) []Pair { return s.direct.vpairVertex(u) }

// VPairTraced is VPair with request tracing: sp, when non-nil, receives
// a "resolve" child for the tuple lookup and — through the matcher —
// the per-phase children of the sequential ParaMatch run (candgen,
// simulate). The span is installed on the matcher under the system
// lock, the same lock that serializes matching, and detached before
// the lock is released, so concurrent requests never share it. A nil
// sp makes this identical to VPair.
func (s *System) VPairTraced(rel string, tupleID int, sp *Span) ([]Pair, error) {
	return s.direct.VPairTraced(rel, tupleID, sp)
}

// APair computes all matches across D and G sequentially.
func (s *System) APair() []Pair { return s.direct.APair() }

// APairOf computes all matches for an explicit set of G_D source
// vertices — the entry point for data formats without a tuple mapping,
// such as JSON documents converted with NewFromJSON.
func (s *System) APairOf(sources []VertexID) []Pair { return s.direct.apairOf(sources) }

// APairParallel computes all matches with the BSP engine on n workers.
// The run parameters (thresholds, metrics registry, candidate generator,
// source set) are snapshotted under the system lock before the engine
// starts, so a concurrent SetThresholds or index rebuild cannot tear
// them mid-run; the engine itself runs without the lock.
func (s *System) APairParallel(workers int) ([]Pair, ParallelStats, error) {
	return s.direct.APairParallel(workers)
}

// APairParallelAsync computes all matches with the asynchronous engine
// (Section VI-B remark 1): no superstep barriers; workers exchange
// messages as they arrive until quiescence.
func (s *System) APairParallelAsync(workers int) ([]Pair, ParallelStats, error) {
	return s.direct.APairParallelAsync(workers)
}

// SourceVertices returns the G_D source vertices APair ranges over: the
// tuple vertices when a relational mapping exists, nil (= every vertex)
// otherwise.
func (s *System) SourceVertices() []VertexID { return s.direct.SourceVertices() }

// Candidates exposes the blocking candidate generator: the G vertices
// considered for a G_D vertex before the σ filter. Baselines reuse it so
// efficiency comparisons share the same blocking. The generator is
// fetched under the system lock (AddGraphEdge swaps it on index
// rebuilds) and invoked outside it — generators are immutable closures.
func (s *System) Candidates(u VertexID) []VertexID {
	s.mu.Lock()
	gen := s.direct.vs.gen
	s.mu.Unlock()
	return gen(u)
}

// RankerD exposes the G_D-side ranking function h_r (for harnesses that
// assemble custom matchers over this system's learned parameters).
func (s *System) RankerD() *ranking.Ranker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.direct.vs.rankerD
}

// RankerG exposes the G-side ranking function h_r.
func (s *System) RankerG() *ranking.Ranker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rankerG
}

// CoreParams exposes the assembled parametric-simulation parameters.
func (s *System) CoreParams() core.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paramsLocked()
}

// Stats reports the sequential matcher's work counters.
func (s *System) Stats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.direct.vs.matcher.Stats()
}

// LastParallelStats reports the statistics of the most recent parallel
// APair run (synchronous or asynchronous); ok is false when no parallel
// run has happened yet.
func (s *System) LastParallelStats() (st ParallelStats, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastPar == nil {
		return ParallelStats{}, false
	}
	return *s.lastPar, true
}

// Explanation explains why a pair matches.
type Explanation struct {
	Witness       []Pair        // the match relation Π(u, v)
	Lineage       []Pair        // the lineage set S(u, v)
	SchemaMatches []SchemaMatch // Γ(u, v): attribute → path
}

// Render writes a human-readable explanation, resolving vertex ids to
// labels through the system's graphs — the paper's "showing why two
// vertices match based on matching vertex pairs and the accumulated
// score".
func (e *Explanation) Render(sys *System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "witness Pi: %d pairs\nlineage S:\n", len(e.Witness))
	for _, p := range e.Lineage {
		fmt.Fprintf(&b, "  (%q, %q)\n", sys.GDLabel(p.U), sys.GraphLabel(p.V))
	}
	b.WriteString("schema matches Gamma:\n")
	for _, sm := range e.SchemaMatches {
		fmt.Fprintf(&b, "  %s -> %s\n", sm.Attr, sm.Rho.LabelString())
	}
	return b.String()
}

// Explain returns the explanation of a confirmed match (running the
// match first if needed).
func (s *System) Explain(u, v VertexID) (*Explanation, error) { return s.direct.Explain(u, v) }

// Predictor returns a learn.Predictor over the current system state,
// including overrides — the function the evaluation harness scores.
func (s *System) Predictor() learn.Predictor {
	return func(p core.Pair) bool { return s.SPairVertices(p.U, p.V) }
}
