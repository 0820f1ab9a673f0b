// Package snapleak is a herlint fixture for the snapshot-escape
// analyzer: a System's live graphs must not reach shard engine state
// except through Clone().
package snapleak

import (
	"her/internal/lint/testdata/src/snapleak/graph"
	"her/internal/lint/testdata/src/snapleak/shard"
)

// System mirrors her.System: G and GD are the live graphs mutated
// under the system lock.
type System struct {
	G  *graph.Graph
	GD *graph.Graph
}

// viewState mirrors her's hosted-view state: gd is the view's live
// graph, mutated under the system lock like System.GD.
type viewState struct {
	gd *graph.Graph
}

// holder is neither; its graphs carry no snapshot contract.
type holder struct {
	g *graph.Graph
}

func badCall(s *System) *shard.Engine {
	return shard.Consume(s.G) // want `live graph System.G escapes into shard call Consume`
}

func badLiteral(s *System) shard.Config {
	return shard.Config{
		Live: s.GD, // want `live graph System.GD escapes into shard state`
	}
}

func badAlias(s *System, e *shard.Engine) {
	g := s.G
	e.Cur = g // want `live graph System.G stored into shard field Cur`
}

func badChainedAlias(s *System) *shard.Engine {
	g := s.G
	h := g
	return shard.Consume(h) // want `live graph System.G escapes into shard call Consume`
}

func badViewState(vs *viewState) shard.Config {
	return shard.Config{
		Live: vs.gd, // want `live graph viewState.gd escapes into shard state`
	}
}

// goodViewStateClone hands the engine a private copy of a view graph.
func goodViewStateClone(vs *viewState) shard.Config {
	return shard.Config{Live: vs.gd.Clone()}
}

// goodClone hands the engine a private copy.
func goodClone(s *System) *shard.Engine {
	return shard.Consume(s.G.Clone())
}

// goodCloneLiteral seeds the config from clones.
func goodCloneLiteral(s *System) shard.Config {
	return shard.Config{Live: s.G.Clone(), Extra: s.GD.Clone()}
}

// goodHolder: graphs on other structs are out of scope.
func goodHolder(h *holder) *shard.Engine {
	return shard.Consume(h.g)
}

// goodLocalUse: live graphs may flow anywhere outside shard state.
func goodLocalUse(s *System) int {
	return len(s.G.Adj)
}

func ignored(s *System) *shard.Engine {
	return shard.Consume(s.GD) //herlint:ignore snapleak — fixture: suppression interplay with the snapshot-escape analyzer
}
