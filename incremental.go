package her

import (
	"fmt"

	"her/internal/graph"
	"her/internal/shard"
)

// This file implements the paper's Section VI-B remark 2: IncPSim
// extended to incrementally link entities in response to updates to D
// and G. New tuples only ADD a fresh region to G_D (their canonical
// vertices have no incoming edges from old vertices), so no cached
// decision is affected and queries about the new tuple evaluate lazily.
// New graph edges can change the top-k selections — and hence the match
// status — of every vertex within MaxPathLen reverse hops of the edge's
// source, so exactly those vertices' ranker entries and cached
// decisions (plus their dependants) are dropped and recomputed on the
// next query.

// AddTuple appends a tuple to the database and maintains every hosted
// view — direct included — returning the new tuple's id. Existing match
// decisions stay valid; matches of the new tuple are computed on demand.
// The one exception is a new tuple that resolves a reference which
// dangled at extraction time: the views it touches recompile (see
// extendViewLocked), dropping their cached decisions.
func (s *System) AddTuple(rel string, values ...string) (int, error) {
	if s.DB == nil {
		return 0, fmt.Errorf("her: no tuple mapping (built with NewFromGraphs)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.DB.Relation(rel)
	if r == nil {
		return 0, fmt.Errorf("her: unknown relation %s", rel)
	}
	id, err := r.Insert(values...)
	if err != nil {
		return 0, err
	}
	for _, name := range s.viewNamesLocked() {
		if err := s.extendViewLocked(s.views[name], rel, id); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// AddGraphVertex appends a vertex to G. It becomes matchable once it is
// connected: a fresh vertex is a leaf, which the blocking index skips
// and whose presence changes no existing neighborhood doc, so the index
// is deliberately NOT rebuilt here — the first AddGraphEdge touching
// the vertex rebuilds it (and every doc it appears in) anyway.
func (s *System) AddGraphVertex(label string) VertexID {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.G.AddVertex(label)
	// G is shared by every view, so each view's engine mirror needs the
	// same delta in its own log.
	for _, name := range s.viewNamesLocked() {
		s.views[name].record(shard.Delta{Kind: shard.DeltaGraphVertex, V: v, Label: label})
	}
	return v
}

// AddGraphEdge adds an edge to G and performs incremental maintenance:
// every vertex that can reach the edge's source within MaxPathLen hops
// may select different top-k properties now, so its ranker entry and its
// cached match decisions (with dependants) are dropped — in every view,
// since the affected set is G-side.
func (s *System) AddGraphEdge(from, to VertexID, label string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.G.AddEdge(from, to, label); err != nil {
		return err
	}
	affected := s.reverseRegion(from, s.opts.MaxPathLen)
	for v := range affected {
		s.rankerG.Invalidate(v)
	}
	s.buildCandidateGenLocked()
	for _, name := range s.viewNamesLocked() {
		vs := s.views[name]
		vs.matcher.ForgetVertices(func(v graph.VID) bool { return affected[v] })
		vs.record(shard.Delta{Kind: shard.DeltaGraphEdge, From: from, To: to, Label: label})
	}
	return nil
}

// reverseRegion collects v and every vertex that reaches v within the
// given number of hops (following edges backwards).
func (s *System) reverseRegion(v VertexID, hops int) map[graph.VID]bool {
	affected := map[graph.VID]bool{v: true}
	frontier := []graph.VID{v}
	for d := 0; d < hops; d++ {
		var next []graph.VID
		for _, x := range frontier {
			for _, in := range s.G.In(x) {
				if !affected[in] {
					affected[in] = true
					next = append(next, in)
				}
			}
		}
		frontier = next
	}
	return affected
}
