package view

import (
	"fmt"
	"strings"

	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// Mapping is the tuple↔vertex mapping of one materialized view — the
// view-generalized form of rdb2rdf.Mapping's f_D, with the same query
// surface so serving layers treat any view uniformly. It additionally
// tracks the dangling foreign-key references seen during extraction:
// a later tuple whose key resolves one of them invalidates append-only
// maintenance (see ResolvesDangling).
type Mapping struct {
	tupleVertex map[rdb2rdf.TupleRef]graph.VID
	vertexTuple map[graph.VID]rdb2rdf.TupleRef
	attrVertex  map[rdb2rdf.TupleRef]map[string]graph.VID
	fkEdges     map[[2]graph.VID]string // (u_t, u_t') → rule label

	// dangling records every (relation, key value) lookup that failed
	// during extraction — degraded FK leaves and broken path steps.
	dangling map[danglingRef]bool
}

// danglingRef keys a dangling reference: the referenced relation plus
// the key value that failed to resolve. rdb2rdf.AddTuple freezes
// dangling FKs forever; views, the direct one included, recompile when
// a later tuple resolves one.
type danglingRef struct {
	Relation string
	Key      string
}

// VertexOf returns the vertex denoting tuple (rel, tupleID).
func (m *Mapping) VertexOf(rel string, tupleID int) (graph.VID, bool) {
	v, ok := m.tupleVertex[rdb2rdf.TupleRef{Relation: rel, TupleID: tupleID}]
	return v, ok
}

// TupleOf returns the tuple a vertex denotes, if it is a tuple vertex.
func (m *Mapping) TupleOf(v graph.VID) (rdb2rdf.TupleRef, bool) {
	t, ok := m.vertexTuple[v]
	return t, ok
}

// IsTupleVertex reports whether v denotes a tuple.
func (m *Mapping) IsTupleVertex(v graph.VID) bool {
	_, ok := m.vertexTuple[v]
	return ok
}

// AttrVertexOf returns the leaf vertex projecting attribute attr of the
// tuple, if one was materialized.
func (m *Mapping) AttrVertexOf(rel string, tupleID int, attr string) (graph.VID, bool) {
	av, ok := m.attrVertex[rdb2rdf.TupleRef{Relation: rel, TupleID: tupleID}]
	if !ok {
		return graph.NoVertex, false
	}
	v, ok := av[attr]
	return v, ok
}

// IsForeignKeyEdge reports whether (from, to) is a tuple→tuple edge
// produced by an edge rule, returning the rule's label.
func (m *Mapping) IsForeignKeyEdge(from, to graph.VID) (string, bool) {
	a, ok := m.fkEdges[[2]graph.VID{from, to}]
	return a, ok
}

// TupleVertices returns every materialized tuple vertex of relation rel
// in tuple order.
func (m *Mapping) TupleVertices(rel string, count int) []graph.VID {
	out := make([]graph.VID, 0, count)
	for id := 0; id < count; id++ {
		if v, ok := m.VertexOf(rel, id); ok {
			out = append(out, v)
		}
	}
	return out
}

// NumTupleVertices reports how many vertices denote tuples.
func (m *Mapping) NumTupleVertices() int { return len(m.vertexTuple) }

func newMapping(sizeHint int) *Mapping {
	return &Mapping{
		tupleVertex: make(map[rdb2rdf.TupleRef]graph.VID, sizeHint),
		vertexTuple: make(map[graph.VID]rdb2rdf.TupleRef, sizeHint),
		attrVertex:  make(map[rdb2rdf.TupleRef]map[string]graph.VID, sizeHint),
		fkEdges:     make(map[[2]graph.VID]string),
		dangling:    make(map[danglingRef]bool),
	}
}

// compiled is the per-Def compilation plan resolved against a concrete
// schema: per-relation attribute/FK indexes the extraction loops read
// without repeated map lookups.
type compiled struct {
	def *Def
	db  *relational.Database

	// byRelation maps a relation name to its vertex rule index, or -1.
	byRelation map[string]int
	// singleStep maps (relation, fk attr) to the single-step edge rules
	// headed there, in definition order.
	singleStep map[[2]string][]int
	// multiStep lists the indices of join-path (≥ 2 steps) and closure
	// rules, in definition order.
	multiStep []int
	// project maps a vertex rule index to its projected attribute set
	// (nil when AllAttrs).
	project []map[string]bool
	// fkOf maps (relation, attr) to the referenced relation, for every
	// relation a rule touches.
	fkOf map[[2]string]string
}

// plan validates def against db's schemas and resolves the lookup
// tables the extraction loops use.
func plan(def *Def, db *relational.Database) (*compiled, error) {
	if err := def.check(); err != nil {
		return nil, err
	}
	c := &compiled{
		def:        def,
		db:         db,
		byRelation: make(map[string]int, len(def.Vertices)),
		singleStep: make(map[[2]string][]int),
		fkOf:       make(map[[2]string]string),
		project:    make([]map[string]bool, len(def.Vertices)),
	}
	for i := range def.Vertices {
		vr := &def.Vertices[i]
		rel := db.Relation(vr.Relation)
		if rel == nil {
			return nil, fmt.Errorf("view %s: vertex rule over unknown relation %s", def.Name, vr.Relation)
		}
		c.byRelation[vr.Relation] = i
		for _, p := range vr.Where {
			if rel.Schema.AttrIndex(p.Attr) < 0 {
				return nil, fmt.Errorf("view %s: vertex %s: predicate over unknown attribute %s",
					def.Name, vr.Relation, p.Attr)
			}
		}
		if vr.LabelAttr != "" && rel.Schema.AttrIndex(vr.LabelAttr) < 0 {
			return nil, fmt.Errorf("view %s: vertex %s: label attribute %s unknown",
				def.Name, vr.Relation, vr.LabelAttr)
		}
		if !vr.AllAttrs {
			c.project[i] = make(map[string]bool, len(vr.Attrs))
			for _, a := range vr.Attrs {
				if rel.Schema.AttrIndex(a) < 0 {
					return nil, fmt.Errorf("view %s: vertex %s: projected attribute %s unknown",
						def.Name, vr.Relation, a)
				}
				c.project[i][a] = true
			}
		}
		for _, fk := range rel.Schema.ForeignKeys {
			c.fkOf[[2]string{vr.Relation, fk.Attr}] = fk.RefRelation
		}
	}
	for i := range def.Edges {
		er := &def.Edges[i]
		relName := er.Relation
		if _, ok := c.byRelation[relName]; !ok {
			return nil, fmt.Errorf("view %s: edge %s: source relation %s has no vertex rule",
				def.Name, er.Label, relName)
		}
		// Resolve the FK chain step by step so a bad path fails at
		// definition time, not mid-extraction.
		for _, attr := range er.Path {
			rel := db.Relation(relName)
			refRel := ""
			for _, fk := range rel.Schema.ForeignKeys {
				if fk.Attr == attr {
					refRel = fk.RefRelation
					break
				}
			}
			if refRel == "" {
				return nil, fmt.Errorf("view %s: edge %s: %s.%s is not a foreign key",
					def.Name, er.Label, relName, attr)
			}
			if db.Relation(refRel) == nil {
				return nil, fmt.Errorf("view %s: edge %s: %s.%s references unknown relation %s",
					def.Name, er.Label, relName, attr, refRel)
			}
			c.fkOf[[2]string{relName, attr}] = refRel
			relName = refRel
		}
		if er.Closure > 0 {
			c.multiStep = append(c.multiStep, i)
		} else if len(er.Path) > 1 {
			c.multiStep = append(c.multiStep, i)
		} else {
			key := [2]string{er.Relation, er.Path[0]}
			c.singleStep[key] = append(c.singleStep[key], i)
		}
	}
	return c, nil
}

// Compile materializes def against db: a graph plus the tuple↔vertex
// mapping. Vertex ids are fixed by rule order then tuple order; edge
// emission interleaves projected attributes and single-step FK edges in
// schema-attribute order, then join-path and closure rules in
// definition order — for the built-in Direct view this reproduces
// rdb2rdf.Map byte for byte.
func Compile(def *Def, db *relational.Database) (*graph.Graph, *Mapping, error) {
	c, err := plan(def, db)
	if err != nil {
		return nil, nil, err
	}
	g := graph.New(db.NumTuples() * 4)
	m := newMapping(db.NumTuples())

	// Pass 1: tuple vertices, in vertex-rule order then tuple order.
	for i := range def.Vertices {
		vr := &def.Vertices[i]
		rel := db.Relation(vr.Relation)
		for _, t := range rel.Tuples {
			if !matchTuple(rel, t, vr.Where) {
				continue
			}
			ref := rdb2rdf.TupleRef{Relation: vr.Relation, TupleID: t.ID}
			v := g.AddVertex(vertexLabel(rel, t, vr))
			m.tupleVertex[ref] = v
			m.vertexTuple[v] = ref
			m.attrVertex[ref] = make(map[string]graph.VID, len(rel.Schema.Attrs))
		}
	}

	// Pass 2: per tuple, schema-attribute order — single-step FK edges
	// (degrading to leaves when dangling and projected) interleaved with
	// projected attribute leaves.
	for i := range def.Vertices {
		vr := &def.Vertices[i]
		rel := db.Relation(vr.Relation)
		for _, t := range rel.Tuples {
			ref := rdb2rdf.TupleRef{Relation: vr.Relation, TupleID: t.ID}
			ut, ok := m.tupleVertex[ref]
			if !ok {
				continue
			}
			c.extractTuple(g, m, i, rel, t, ut)
		}
	}

	// Pass 3: join paths and closures, in definition order.
	for _, ei := range c.multiStep {
		er := &def.Edges[ei]
		rel := db.Relation(er.Relation)
		for _, t := range rel.Tuples {
			ut, ok := m.tupleVertex[rdb2rdf.TupleRef{Relation: er.Relation, TupleID: t.ID}]
			if !ok {
				continue
			}
			c.extractPaths(g, m, er, t, ut)
		}
	}
	return g, m, nil
}

// matchTuple evaluates a vertex rule's predicate conjunction over one
// tuple. A predicate over a null attribute never holds.
//
//herlint:hot
func matchTuple(rel *relational.Relation, t relational.Tuple, where []Predicate) bool {
	for i := range where {
		p := &where[i]
		val := t.Values[rel.Schema.AttrIndex(p.Attr)]
		if relational.IsNull(val) {
			return false
		}
		switch p.Op {
		case "=":
			if val != p.Value {
				return false
			}
		case "!=":
			if val == p.Value {
				return false
			}
		case "~":
			if !strings.Contains(val, p.Value) {
				return false
			}
		}
	}
	return true
}

// vertexLabel picks the vertex label: the LabelAttr value when set and
// non-null, the relation name otherwise.
func vertexLabel(rel *relational.Relation, t relational.Tuple, vr *VertexRule) string {
	if vr.LabelAttr != "" {
		if v := t.Values[rel.Schema.AttrIndex(vr.LabelAttr)]; !relational.IsNull(v) {
			return v
		}
	}
	return vr.Relation
}

// extractTuple runs pass 2 for one materialized tuple: walk the schema
// attributes in order; a single-step FK edge rule headed at an
// attribute wins over its leaf projection when the target resolves to a
// materialized tuple, degrades to the leaf when dangling-and-projected,
// and is skipped otherwise. Dangling lookups are recorded so a later
// tuple resolving one invalidates append-only maintenance.
//
//herlint:hot
func (c *compiled) extractTuple(g *graph.Graph, m *Mapping, ruleIdx int, rel *relational.Relation, t relational.Tuple, ut graph.VID) {
	proj := c.project[ruleIdx]
	ref := rdb2rdf.TupleRef{Relation: rel.Schema.Name, TupleID: t.ID}
	for i, attr := range rel.Schema.Attrs {
		val := t.Values[i]
		if relational.IsNull(val) {
			continue
		}
		projected := proj == nil || proj[attr]
		rules := c.singleStep[[2]string{rel.Schema.Name, attr}]
		edged := false
		for _, ei := range rules {
			er := &c.def.Edges[ei]
			refRel := c.fkOf[[2]string{rel.Schema.Name, attr}]
			target := c.db.Relation(refRel)
			rt, ok := target.LookupKey(val)
			if !ok {
				m.dangling[danglingRef{Relation: refRel, Key: val}] = true
				continue
			}
			ut2, mapped := m.tupleVertex[rdb2rdf.TupleRef{Relation: refRel, TupleID: rt.ID}]
			if !mapped {
				continue
			}
			g.MustAddEdge(ut, ut2, er.Label)
			m.fkEdges[[2]graph.VID{ut, ut2}] = er.Label
			edged = true
		}
		if edged || !projected {
			continue
		}
		av := g.AddVertex(val)
		g.MustAddEdge(ut, av, attr)
		m.attrVertex[ref][attr] = av
	}
}

// extractPaths runs pass 3 for one materialized source tuple: follow
// the rule's FK chain (or closure) and add an edge to every
// materialized endpoint. Intermediate tuples need not be materialized.
//
//herlint:hot
func (c *compiled) extractPaths(g *graph.Graph, m *Mapping, er *EdgeRule, t relational.Tuple, ut graph.VID) {
	if er.Closure > 0 {
		c.extractClosure(g, m, er, t, ut)
		return
	}
	relName := er.Relation
	cur := t
	for _, attr := range er.Path {
		rel := c.db.Relation(relName)
		ai := rel.Schema.AttrIndex(attr)
		if ai < 0 {
			return
		}
		val := cur.Values[ai]
		if relational.IsNull(val) {
			return
		}
		refRel := c.fkOf[[2]string{relName, attr}]
		target := c.db.Relation(refRel)
		rt, ok := target.LookupKey(val)
		if !ok {
			m.dangling[danglingRef{Relation: refRel, Key: val}] = true
			return
		}
		relName, cur = refRel, rt
	}
	ut2, mapped := m.tupleVertex[rdb2rdf.TupleRef{Relation: relName, TupleID: cur.ID}]
	if !mapped || ut2 == ut {
		return
	}
	g.MustAddEdge(ut, ut2, er.Label)
	m.fkEdges[[2]graph.VID{ut, ut2}] = er.Label
}

// extractClosure walks the functional FK chain up to the rule's depth,
// adding an edge to every materialized tuple reached. The chain stops
// at a null value, a dangling key, a missing FK in the reached
// relation, or a revisit (cycle).
//
//herlint:hot
func (c *compiled) extractClosure(g *graph.Graph, m *Mapping, er *EdgeRule, t relational.Tuple, ut graph.VID) {
	attr := er.Path[0]
	relName := er.Relation
	cur := t
	visited := make(map[rdb2rdf.TupleRef]bool, er.Closure)
	visited[rdb2rdf.TupleRef{Relation: relName, TupleID: t.ID}] = true
	for hop := 0; hop < er.Closure; hop++ {
		rel := c.db.Relation(relName)
		ai := rel.Schema.AttrIndex(attr)
		if ai < 0 {
			return
		}
		refRel, isFK := c.fkOf[[2]string{relName, attr}]
		if !isFK {
			// The chain wandered into a relation where attr is not a
			// declared FK; resolve it once so recompiles stay cheap.
			for _, fk := range rel.Schema.ForeignKeys {
				if fk.Attr == attr {
					refRel, isFK = fk.RefRelation, true
					c.fkOf[[2]string{relName, attr}] = refRel
					break
				}
			}
			if !isFK {
				return
			}
		}
		val := cur.Values[ai]
		if relational.IsNull(val) {
			return
		}
		target := c.db.Relation(refRel)
		if target == nil {
			return
		}
		rt, ok := target.LookupKey(val)
		if !ok {
			m.dangling[danglingRef{Relation: refRel, Key: val}] = true
			return
		}
		nref := rdb2rdf.TupleRef{Relation: refRel, TupleID: rt.ID}
		if visited[nref] {
			return
		}
		visited[nref] = true
		if ut2, mapped := m.tupleVertex[nref]; mapped && ut2 != ut {
			g.MustAddEdge(ut, ut2, er.Label)
			m.fkEdges[[2]graph.VID{ut, ut2}] = er.Label
		}
		relName, cur = refRel, rt
	}
}
