package her

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"her/internal/bsp"
	"her/internal/core"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/lstm"
	"her/internal/ranking"
	"her/internal/shard"
	"her/internal/view"
)

// This file hosts graph views (internal/view) as first-class linking
// targets. Every view — the built-in "direct" one included — carries
// its own G_D-side graph, mapping, matcher, candidate generator,
// user-verified overrides, generation counter and delta log, and the
// whole query surface is written once, on the view: the System's own
// tuple- and vertex-addressed queries delegate to the direct view.
// With a database, direct is compiled from view.Direct(db), the RDB2RDF
// canonical mapping expressed as rules; a System built from graphs
// wraps the supplied G_D as a direct view without a mapping.
//
// Maintenance rides the delta machinery per view: AddTuple extends each
// view's fresh region and records a DeltaTuple in that view's log; G
// mutations fan out as graph deltas; and any change append-only
// extraction cannot express — a new tuple resolving a reference that
// dangled at extraction time — recompiles the view and records a
// DeltaReset, which forces that view's serving engines into the full
// rebuild they need. This holds for direct too, so it always equals
// f_D of the current database.
//
// Overrides are per view and keyed by the view's vertex ids; only
// Refine (which addresses the direct view) fills them, and a recompile
// carries them across the renumbering by tuple identity.

// ViewDef re-exports the view definition type for the builder API.
type ViewDef = view.Def

// DirectViewName is the reserved name of the built-in direct view.
const DirectViewName = view.DirectName

// NewViewDef starts a view definition (builder API); see internal/view.
func NewViewDef(name string) *ViewDef { return view.NewDef(name) }

// ParseViews parses view definitions in the rule language.
func ParseViews(src []byte) ([]*ViewDef, error) { return view.Parse(src) }

// viewState is the state of one hosted view. All fields are guarded by
// System.mu except generation, which serving engines read without the
// lock, and name and deltas, which never change after installation.
type viewState struct {
	name      string
	def       *view.Def     // nil for a direct view wrapping a supplied G_D
	gd        *graph.Graph  // the view's materialized graph
	mapping   *view.Mapping // nil for a direct view wrapping a supplied G_D
	rankerD   *ranking.Ranker
	matcher   *core.Matcher
	gen       core.CandidateGen
	overrides map[core.Pair]bool // user-verified pairs (Section IV refinement)

	generation atomic.Uint64
	deltas     *shard.DeltaLog
}

// record stamps d with the view's next generation, records it in the
// view's delta log, and only then publishes the generation bump — so
// any engine that observes the new generation is guaranteed to find
// its delta in the log. Callers hold System.mu (all mutation paths do),
// which serializes the stamp-record-bump sequence.
func (vs *viewState) record(d shard.Delta) {
	d.Gen = vs.generation.Load() + 1
	vs.deltas.Record(d)
	vs.generation.Add(1)
}

// rebuildGenFrom derives the view's candidate generator from the shared
// G-side inverted index and the view's own G_D-side neighborhood docs.
func (vs *viewState) rebuildGenFrom(ix *index.Inverted, minShared int) {
	docD := index.NeighborhoodDoc(vs.gd)
	vs.gen = func(u graph.VID) []graph.VID {
		return ix.Lookup(docD(u), minShared)
	}
}

// applyOverridesLocked reconciles algorithmic matches with the view's
// user-verified verdicts: refuted pairs are removed; confirmed pairs
// for the scoped vertex (or any vertex when scope is NoVertex) are
// added. Callers hold System.mu.
func (vs *viewState) applyOverridesLocked(matches []Pair, scope graph.VID) []Pair {
	if len(vs.overrides) == 0 {
		return matches
	}
	out := matches[:0]
	have := make(map[core.Pair]bool, len(matches))
	for _, p := range matches {
		if verdict, ok := vs.overrides[p]; ok && !verdict {
			continue
		}
		out = append(out, p)
		have[p] = true
	}
	// Collect the confirmed additions and sort them: the overrides are a
	// map, and letting its iteration order reach the returned match list
	// would make VPair/APair responses differ run to run.
	added := make([]Pair, 0, len(vs.overrides))
	for p, verdict := range vs.overrides {
		if verdict && !have[p] && (scope == graph.NoVertex || p.U == scope) {
			added = append(added, p)
		}
	}
	return append(out, core.SortPairs(added)...)
}

// publishViewMetricsLocked refreshes the view's her_view_* gauges.
func (s *System) publishViewMetricsLocked(vs *viewState) {
	reg := s.opts.Metrics
	if reg == nil {
		return
	}
	reg.Gauge(fmt.Sprintf("her_view_vertices{view=%q}", vs.name)).Set(float64(vs.gd.NumVertices()))
	reg.Gauge(fmt.Sprintf("her_view_edges{view=%q}", vs.name)).Set(float64(vs.gd.NumEdges()))
	reg.Gauge(fmt.Sprintf("her_view_generation{view=%q}", vs.name)).Set(float64(vs.generation.Load()))
}

// newMatcherLocked builds a view's matcher around its graph and ranker
// and the current scorers and thresholds. Callers hold s.mu.
func (s *System) newMatcherLocked(vs *viewState) error {
	m, err := core.NewMatcher(vs.gd, s.G, vs.rankerD, s.rankerG, s.paramsLocked())
	if err != nil {
		return err
	}
	m.SetMetrics(s.opts.Metrics)
	vs.matcher = m
	return nil
}

// installViewLocked derives a compiled view's ranker, candidate
// generator and matcher and hosts it under its name. Callers hold s.mu
// (construction-time calls own the System exclusively).
func (s *System) installViewLocked(vs *viewState) error {
	vs.rankerD = ranking.NewRanker(vs.gd, s.lm, s.opts.MaxPathLen)
	vs.rebuildGenFrom(s.ix, s.opts.MinSharedTokens)
	if err := s.newMatcherLocked(vs); err != nil {
		return err
	}
	vs.overrides = make(map[core.Pair]bool)
	vs.deltas = shard.NewDeltaLog(0)
	if s.views == nil {
		s.views = make(map[string]*viewState)
	}
	s.views[vs.name] = vs
	s.syncDirectLocked()
	s.publishViewMetricsLocked(vs)
	return nil
}

// syncDirectLocked points the exported GD and Mapping at the direct
// view's current graph and mapping. Callers hold s.mu.
func (s *System) syncDirectLocked() {
	d := s.views[DirectViewName]
	s.GD, s.Mapping = d.gd, d.mapping
}

// AddViewDef compiles def against the System's database and installs it
// as a named view. The name "direct" is reserved for the built-in
// canonical mapping.
func (s *System) AddViewDef(def *ViewDef) error {
	if def == nil {
		return fmt.Errorf("her: nil view definition")
	}
	if s.DB == nil {
		return fmt.Errorf("her: views need a relational database (built with NewFromGraphs)")
	}
	if def.Name == DirectViewName {
		return fmt.Errorf("her: view name %q is reserved for the canonical mapping", DirectViewName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.views[def.Name]; dup {
		return fmt.Errorf("her: view %q already exists", def.Name)
	}
	t0 := time.Now()
	gd, mapping, err := view.Compile(def, s.DB)
	if err != nil {
		return err
	}
	if err := s.installViewLocked(&viewState{name: def.Name, def: def, gd: gd, mapping: mapping}); err != nil {
		return err
	}
	if reg := s.opts.Metrics; reg != nil {
		reg.Histogram(fmt.Sprintf("her_view_extract_seconds{view=%q}", def.Name),
			nil).ObserveSince(t0)
	}
	return nil
}

// LoadViewFile parses a view definition file and installs every view in
// it — the loading path behind hercli/herserve's -views flag.
func (s *System) LoadViewFile(r io.Reader) error {
	defs, err := view.ParseReader(r)
	if err != nil {
		return err
	}
	for _, d := range defs {
		if err := s.AddViewDef(d); err != nil {
			return err
		}
	}
	return nil
}

// ViewNames lists the hosted views: "direct" first, then the named
// views in sorted order.
func (s *System) ViewNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewNamesLocked()
}

// viewNamesLocked lists the hosted views in the deterministic order of
// ViewNames — the order every all-views loop runs in. Callers hold s.mu.
func (s *System) viewNamesLocked() []string {
	names := make([]string, 0, len(s.views))
	for n := range s.views {
		if n != DirectViewName {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{DirectViewName}, names...)
}

// View resolves a view by name; "" and "direct" name the built-in
// canonical mapping. The returned handle addresses queries at the
// view's graph and mapping.
func (s *System) View(name string) (*ViewHandle, error) {
	if name == "" {
		name = DirectViewName
	}
	s.mu.Lock()
	vs := s.views[name]
	s.mu.Unlock()
	if vs == nil {
		return nil, fmt.Errorf("her: unknown view %q", name)
	}
	return &ViewHandle{sys: s, vs: vs}, nil
}

// installLMLocked installs a language model and rebinds every ranker to
// it: the G-side one and each view's G_D-side one. The matcher reset
// that must follow rebuilds the matchers around the new rankers.
// Callers hold s.mu.
func (s *System) installLMLocked(lm *lstm.Model) {
	s.lm = lm
	s.rankerG = ranking.NewRanker(s.G, lm, s.opts.MaxPathLen)
	for _, vs := range s.views {
		vs.rankerD = ranking.NewRanker(vs.gd, lm, s.opts.MaxPathLen)
	}
}

// recompileViewLocked re-extracts a view from scratch — the fallback
// when append-only maintenance cannot express a change — and records a
// reset delta. The recompile renumbers vertices, so the view's
// overrides move to the new ids by tuple identity. Callers hold s.mu.
func (s *System) recompileViewLocked(vs *viewState) error {
	t0 := time.Now()
	gd, mapping, err := view.Compile(vs.def, s.DB)
	if err != nil {
		return err
	}
	moved := make(map[core.Pair]bool, len(vs.overrides))
	for p, verdict := range vs.overrides {
		if ref, ok := vs.mapping.TupleOf(p.U); ok {
			if u, ok := mapping.VertexOf(ref.Relation, ref.TupleID); ok {
				moved[core.Pair{U: u, V: p.V}] = verdict
			}
		}
	}
	vs.gd, vs.mapping, vs.overrides = gd, mapping, moved
	vs.rankerD = ranking.NewRanker(gd, s.lm, s.opts.MaxPathLen)
	vs.rebuildGenFrom(s.ix, s.opts.MinSharedTokens)
	if err := s.newMatcherLocked(vs); err != nil {
		return err
	}
	vs.record(shard.Delta{Kind: shard.DeltaReset})
	s.syncDirectLocked()
	if reg := s.opts.Metrics; reg != nil {
		reg.Counter(fmt.Sprintf("her_view_resets_total{view=%q}", vs.name)).Inc()
		reg.Histogram(fmt.Sprintf("her_view_extract_seconds{view=%q}", vs.name),
			nil).ObserveSince(t0)
	}
	s.publishViewMetricsLocked(vs)
	return nil
}

// extendViewLocked maintains one view after tuple (rel, id) was
// appended to the database: append-only extension with a DeltaTuple
// when sound, full recompile with a DeltaReset when the new tuple
// resolves a dangling reference. The delta carries the exact new region
// — vertices in id order, edges grouped by source in insertion order
// (only the new vertices gained out-edges) — so an engine mirror
// replaying it is byte-identical to the view's graph. Callers hold s.mu.
func (s *System) extendViewLocked(vs *viewState, rel string, id int) error {
	if vs.mapping.ResolvesDangling(s.DB, rel, id) {
		return s.recompileViewLocked(vs)
	}
	base := vs.gd.NumVertices()
	if err := view.ExtendTuple(vs.gd, vs.mapping, vs.def, s.DB, rel, id); err != nil {
		// Extension is best-effort; a full recompile is always sound.
		return s.recompileViewLocked(vs)
	}
	d := shard.Delta{Kind: shard.DeltaTuple, GDBase: base}
	for v := base; v < vs.gd.NumVertices(); v++ {
		d.GDLabels = append(d.GDLabels, vs.gd.Label(graph.VID(v)))
		for _, e := range vs.gd.Out(graph.VID(v)) {
			d.GDEdges = append(d.GDEdges, shard.GDEdge{From: graph.VID(v), To: e.To, Label: e.Label})
		}
	}
	vs.record(d)
	if reg := s.opts.Metrics; reg != nil {
		reg.Counter(fmt.Sprintf("her_view_delta_tuples_total{view=%q}", vs.name)).Inc()
	}
	s.publishViewMetricsLocked(vs)
	return nil
}

// ViewInfo describes one hosted view for /stats and the CLI.
type ViewInfo struct {
	Name       string `json:"name"`
	Rules      int    `json:"rules"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Tuples     int    `json:"tuples"`
	Generation uint64 `json:"generation"`
}

// ViewHandle addresses queries at one hosted view: its graph, mapping,
// matcher and overrides. The System's own query methods are the direct
// view's handle.
type ViewHandle struct {
	sys *System
	vs  *viewState
}

// Name returns the view's name.
func (h *ViewHandle) Name() string { return h.vs.name }

// Generation reports the view's mutation generation. Safe for
// concurrent use.
func (h *ViewHandle) Generation() uint64 { return h.vs.generation.Load() }

// Info snapshots the view's shape for /stats and the CLI.
func (h *ViewHandle) Info() ViewInfo {
	s, vs := h.sys, h.vs
	s.mu.Lock()
	defer s.mu.Unlock()
	info := ViewInfo{
		Name:       vs.name,
		Vertices:   vs.gd.NumVertices(),
		Edges:      vs.gd.NumEdges(),
		Generation: vs.generation.Load(),
	}
	if vs.def != nil {
		info.Rules = vs.def.RuleCount()
		info.Tuples = vs.mapping.NumTupleVertices()
	}
	return info
}

// TupleOf reports which tuple a view-graph vertex materializes (the
// inverse of TupleVertex), under the system lock.
func (h *ViewHandle) TupleOf(u VertexID) (TupleRef, bool) {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.vs.mapping == nil {
		return TupleRef{}, false
	}
	return h.vs.mapping.TupleOf(u)
}

// TupleVertex resolves a tuple to its vertex in this view's graph,
// under the system lock — AddTuple extends the mapping while serving
// paths resolve concurrently.
func (h *ViewHandle) TupleVertex(rel string, tupleID int) (VertexID, error) {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.tupleVertexLocked(rel, tupleID)
}

func (h *ViewHandle) tupleVertexLocked(rel string, tupleID int) (VertexID, error) {
	if h.vs.mapping == nil {
		return NoVertex, fmt.Errorf("her: no tuple mapping (built with NewFromGraphs)")
	}
	u, ok := h.vs.mapping.VertexOf(rel, tupleID)
	if !ok {
		return NoVertex, fmt.Errorf("her: view %s: tuple %s/%d not materialized", h.vs.name, rel, tupleID)
	}
	return u, nil
}

// GDLabel returns the label of vertex u in this view's graph ("" when u
// is not one of its vertices), under the system lock.
func (h *ViewHandle) GDLabel(u VertexID) string {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if !h.vs.gd.Valid(u) {
		return ""
	}
	return h.vs.gd.Label(u)
}

// SPair checks whether the tuple and vertex v refer to the same entity,
// through this view's extraction.
func (h *ViewHandle) SPair(rel string, tupleID int, v VertexID) (bool, error) {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	u, err := h.tupleVertexLocked(rel, tupleID)
	if err != nil {
		return false, err
	}
	return h.spairLocked(u, v), nil
}

func (h *ViewHandle) spairVertex(u, v VertexID) bool {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.spairLocked(u, v)
}

func (h *ViewHandle) spairLocked(u, v VertexID) bool {
	if verdict, ok := h.vs.overrides[core.Pair{U: u, V: v}]; ok {
		return verdict
	}
	return h.vs.matcher.Match(u, v)
}

// VPair finds all vertices of G matching the tuple through this view.
func (h *ViewHandle) VPair(rel string, tupleID int) ([]Pair, error) {
	return h.VPairTraced(rel, tupleID, nil)
}

// VPairTraced is VPair with request tracing (see System.VPairTraced).
func (h *ViewHandle) VPairTraced(rel string, tupleID int, sp *Span) ([]Pair, error) {
	s, vs := h.sys, h.vs
	s.mu.Lock()
	defer s.mu.Unlock()
	rsp := sp.Child("resolve")
	u, err := h.tupleVertexLocked(rel, tupleID)
	rsp.End()
	if err != nil {
		return nil, err
	}
	vs.matcher.SetSpan(sp)
	defer vs.matcher.SetSpan(nil)
	return vs.applyOverridesLocked(vs.matcher.VPair(u, vs.gen), u), nil
}

func (h *ViewHandle) vpairVertex(u VertexID) []Pair {
	s, vs := h.sys, h.vs
	s.mu.Lock()
	defer s.mu.Unlock()
	return vs.applyOverridesLocked(vs.matcher.VPair(u, vs.gen), u)
}

// SourceVertices returns the view's tuple vertices in relation order —
// the source set its APair ranges over; nil (= every vertex) for a
// direct view without a mapping.
func (h *ViewHandle) SourceVertices() []VertexID {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.sourcesLocked()
}

func (h *ViewHandle) sourcesLocked() []graph.VID {
	m, db := h.vs.mapping, h.sys.DB
	if m == nil {
		return nil
	}
	names := db.RelationNames()
	total := 0
	for _, relName := range names {
		total += len(db.Relation(relName).Tuples)
	}
	out := make([]graph.VID, 0, total)
	for _, relName := range names {
		out = append(out, m.TupleVertices(relName, len(db.Relation(relName).Tuples))...)
	}
	return out
}

// APair computes all matches across the view and G sequentially.
func (h *ViewHandle) APair() []Pair {
	s, vs := h.sys, h.vs
	s.mu.Lock()
	defer s.mu.Unlock()
	return vs.applyOverridesLocked(vs.matcher.APair(h.sourcesLocked(), vs.gen), graph.NoVertex)
}

func (h *ViewHandle) apairOf(sources []VertexID) []Pair {
	s, vs := h.sys, h.vs
	s.mu.Lock()
	defer s.mu.Unlock()
	return vs.applyOverridesLocked(vs.matcher.APair(sources, vs.gen), graph.NoVertex)
}

// APairParallel computes all matches across the view and G with the
// BSP engine on n workers (see System.APairParallel).
func (h *ViewHandle) APairParallel(workers int) ([]Pair, ParallelStats, error) {
	return h.apairParallel(func(e *bsp.Engine, src []graph.VID, gen core.CandidateGen) ([]Pair, ParallelStats, error) {
		return e.Run(src, gen, bsp.Config{Workers: workers})
	})
}

// APairParallelAsync is APairParallel on the asynchronous engine.
func (h *ViewHandle) APairParallelAsync(workers int) ([]Pair, ParallelStats, error) {
	return h.apairParallel(func(e *bsp.Engine, src []graph.VID, gen core.CandidateGen) ([]Pair, ParallelStats, error) {
		return e.RunAsync(src, gen, bsp.Config{Workers: workers})
	})
}

// apairParallel snapshots the run parameters (thresholds, metrics
// registry, graphs, rankers, candidate generator, source set) under the
// system lock, runs the engine without it, and reconciles the result
// with the view's overrides.
func (h *ViewHandle) apairParallel(run func(*bsp.Engine, []graph.VID, core.CandidateGen) ([]Pair, ParallelStats, error)) ([]Pair, ParallelStats, error) {
	s, vs := h.sys, h.vs
	s.mu.Lock()
	p := s.paramsLocked()
	met := s.opts.Metrics
	gd, rankerD, rankerG, gen := vs.gd, vs.rankerD, s.rankerG, vs.gen
	sources := h.sourcesLocked()
	s.mu.Unlock()
	eng, err := bsp.NewEngine(gd, s.G, rankerD, rankerG, p)
	if err != nil {
		return nil, ParallelStats{}, err
	}
	eng.Metrics = met
	matches, stats, err := run(eng, sources, gen)
	if err != nil {
		return nil, stats, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastPar = &stats
	return vs.applyOverridesLocked(matches, graph.NoVertex), stats, nil
}

func (h *ViewHandle) applyOverrides(matches []Pair, scope VertexID) []Pair {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	return h.vs.applyOverridesLocked(matches, scope)
}

// Explain explains a confirmed match of this view (running the match
// first if needed).
func (h *ViewHandle) Explain(u, v VertexID) (*Explanation, error) {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	m := h.vs.matcher
	if !m.Match(u, v) {
		return nil, fmt.Errorf("her: view %s: (%d, %d) is not a match", h.vs.name, u, v)
	}
	sm, err := m.SchemaMatches(u, v)
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Witness:       m.Witness(u, v),
		Lineage:       m.Lineage(u, v),
		SchemaMatches: sm,
	}, nil
}

// CanonicalDump serializes the view in the vertex-id-independent form
// of view.CanonicalDump — the equality the mutation-sequence
// differential compares, since append-only maintenance and a fresh
// recompile interleave vertex ids differently while denoting the same
// graph. Errors on a direct view without a tuple mapping.
func (h *ViewHandle) CanonicalDump() (string, error) {
	s := h.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.vs.mapping == nil {
		return "", fmt.Errorf("her: view %s has no tuple mapping", h.vs.name)
	}
	return view.CanonicalDump(h.vs.gd, h.vs.mapping, s.DB), nil
}

// Def returns the view's definition — view.Direct(db) for the direct
// view, nil when the System was built from graphs.
func (h *ViewHandle) Def() *ViewDef { return h.vs.def }

// WriteTSV serializes the view's graph (cloned under the system lock,
// written without it) — hercli extract and GET /extract use this.
func (h *ViewHandle) WriteTSV(w io.Writer) error {
	s := h.sys
	s.mu.Lock()
	g := h.vs.gd.Clone()
	s.mu.Unlock()
	return g.WriteTSV(w)
}

// ShardConfig assembles the configuration of a sharded serving engine
// (internal/shard) over this view:
//
//   - the Snapshot hook clones the graphs and re-reads the language
//     model and thresholds under the system lock at every (re)build:
//     the engine reads its graphs at request time without taking the
//     system lock, so it must never share them with the live graphs
//     that AddTuple/AddGraphVertex/AddGraphEdge mutate under that lock.
//     Each build therefore serves from private copies, with the ranker
//     rebound to the cloned G_D; a mutation publishes itself through
//     the generation bump, which retires the snapshot on the next
//     request;
//   - Generation ties the engine's result cache and maintenance trigger
//     to the view's mutation counter — AddTuple, AddGraphVertex,
//     AddGraphEdge, Refine, retraining and threshold changes all bump it;
//   - Deltas exposes the view's typed delta log: incremental updates
//     are applied to the engine's private snapshots in place (halo-scoped
//     fragment updates, vertex-scoped cache invalidation) instead of
//     re-cloning; resets (feedback, retraining, threshold changes,
//     recompiles) poison the log and force the full rebuild they require;
//   - Overrides routes every merged match set through the view's
//     user-verified verdicts, exactly like the sequential query paths.
//
// The remaining shared components (scorers, language model) are safe for
// the engine's concurrent reads: scorers memoize behind RWMutexes and a
// retrained model is built aside and swapped in whole.
func (h *ViewHandle) ShardConfig(shards int) shard.Config {
	s, vs := h.sys, h.vs
	cfg := shard.Config{
		Shards:     shards,
		Generation: vs.generation.Load,
		Deltas:     vs.deltas.Since,
		Overrides:  h.applyOverrides,
		Metrics:    s.Metrics(),
	}
	cfg.Snapshot = func(c shard.Config) shard.Config {
		s.mu.Lock()
		defer s.mu.Unlock()
		c.GD, c.G = vs.gd.Clone(), s.G.Clone()
		c.LM = s.lm
		c.RankerD = ranking.NewRanker(c.GD, s.lm, s.opts.MaxPathLen)
		c.Params = s.paramsLocked()
		c.MaxPathLen = s.opts.MaxPathLen
		c.MinSharedTokens = s.opts.MinSharedTokens
		// SnapGen anchors delta replay: it is read under the same lock
		// that serializes mutations, so the clones are exactly the graphs
		// of this generation — never a mid-request mix.
		c.SnapGen = vs.generation.Load()
		return c
	}
	return cfg.Snapshot(cfg)
}
