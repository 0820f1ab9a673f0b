package testkit

import (
	"bytes"
	"fmt"

	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
	"her/internal/view"
)

// This file holds the view differentials: the generic rule compiler of
// internal/view claims that its built-in direct definition reproduces
// rdb2rdf.Map exactly — same graph bytes, same tuple↔vertex tables —
// and the claim must hold on every schema the generator can produce,
// not just the golden fixture. DirectViewDiff checks one database;
// the tests sweep it over the golden DB plus 100+ generated ones.

// DirectViewDiff compiles view.Direct(db) and rdb2rdf.Map(db) and
// compares them for byte identity: serialized graph bytes (WriteTSV
// covers labels, edge order and vertex numbering) plus the tuple-vertex,
// attribute-vertex and FK-edge tables of the mappings. It then appends
// one fresh-key tuple per relation to a copy of db, extends both sides
// (rdb2rdf.AddTuple and view.ExtendTuple) and compares again: on the
// common write path the direct view's vertex ids must not move. A
// non-nil error describes the first divergence.
func DirectViewDiff(db *relational.Database) error {
	db = copyDB(db)
	wantG, wantM, err := rdb2rdf.Map(db)
	if err != nil {
		return fmt.Errorf("rdb2rdf.Map: %w", err)
	}
	def := view.Direct(db)
	gotG, gotM, err := view.Compile(def, db)
	if err != nil {
		return fmt.Errorf("view.Compile(Direct): %w", err)
	}
	if err := diffDirect(db, wantG, wantM, gotG, gotM); err != nil {
		return err
	}
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		vals := make([]string, len(rel.Schema.Attrs))
		for i := range vals {
			vals[i] = relational.Null
		}
		if len(rel.Tuples) > 0 {
			copy(vals, rel.Tuples[0].Values)
		}
		if k := rel.Schema.AttrIndex(rel.Schema.Key); k >= 0 {
			vals[k] = fmt.Sprintf("%s fresh %d", relName, len(rel.Tuples))
		}
		id, err := rel.Insert(vals...)
		if err != nil {
			return fmt.Errorf("insert into %s: %w", relName, err)
		}
		if err := rdb2rdf.AddTuple(wantG, wantM, db, relName, id); err != nil {
			return fmt.Errorf("rdb2rdf.AddTuple(%s/%d): %w", relName, id, err)
		}
		if err := view.ExtendTuple(gotG, gotM, def, db, relName, id); err != nil {
			return fmt.Errorf("view.ExtendTuple(%s/%d): %w", relName, id, err)
		}
		if err := diffDirect(db, wantG, wantM, gotG, gotM); err != nil {
			return fmt.Errorf("after appending %s/%d: %w", relName, id, err)
		}
	}
	return nil
}

// copyDB copies db's schemas and tuples (in id order) into a fresh
// database, so DirectViewDiff can append without touching its input.
func copyDB(db *relational.Database) *relational.Database {
	names := db.RelationNames()
	schemas := make([]*relational.Schema, 0, len(names))
	for _, n := range names {
		schemas = append(schemas, db.Relation(n).Schema)
	}
	out := relational.NewDatabase(schemas...)
	for _, n := range names {
		for _, t := range db.Relation(n).Tuples {
			out.Relation(n).MustInsert(t.Values...)
		}
	}
	return out
}

// diffDirect compares an rdb2rdf graph and mapping with a direct view's
// over the same database.
func diffDirect(db *relational.Database, wantG *graph.Graph, wantM *rdb2rdf.Mapping, gotG *graph.Graph, gotM *view.Mapping) error {
	var wantB, gotB bytes.Buffer
	if err := wantG.WriteTSV(&wantB); err != nil {
		return err
	}
	if err := gotG.WriteTSV(&gotB); err != nil {
		return err
	}
	if !bytes.Equal(wantB.Bytes(), gotB.Bytes()) {
		return fmt.Errorf("graph bytes diverge:\nrdb2rdf (%d bytes):\n%s\nview (%d bytes):\n%s",
			wantB.Len(), wantB.String(), gotB.Len(), gotB.String())
	}
	if got, want := gotM.NumTupleVertices(), wantM.NumTupleVertices(); got != want {
		return fmt.Errorf("tuple vertex count: view %d, rdb2rdf %d", got, want)
	}
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, t := range rel.Tuples {
			wu, wok := wantM.VertexOf(relName, t.ID)
			gu, gok := gotM.VertexOf(relName, t.ID)
			if wok != gok || wu != gu {
				return fmt.Errorf("tuple %s/%d: view vertex (%d,%v), rdb2rdf (%d,%v)",
					relName, t.ID, gu, gok, wu, wok)
			}
			if ref, ok := gotM.TupleOf(gu); !ok || ref.Relation != relName || ref.TupleID != t.ID {
				return fmt.Errorf("tuple %s/%d: inverse lookup gave %+v (ok=%v)", relName, t.ID, ref, ok)
			}
			for _, attr := range rel.Schema.Attrs {
				wa, wok := wantM.AttrVertexOf(relName, t.ID, attr)
				ga, gok := gotM.AttrVertexOf(relName, t.ID, attr)
				if wok != gok || wa != ga {
					return fmt.Errorf("tuple %s/%d attr %s: view leaf (%d,%v), rdb2rdf (%d,%v)",
						relName, t.ID, attr, ga, gok, wa, wok)
				}
			}
			for _, e := range gotG.Out(gu) {
				wl, wok := wantM.IsForeignKeyEdge(gu, e.To)
				gl, gok := gotM.IsForeignKeyEdge(gu, e.To)
				if wok != gok || wl != gl {
					return fmt.Errorf("tuple %s/%d edge to %d: view FK (%q,%v), rdb2rdf (%q,%v)",
						relName, t.ID, e.To, gl, gok, wl, wok)
				}
			}
		}
	}
	return nil
}

// SlimViewDef builds a non-direct view over any generated schema: each
// relation keyed and labeled by its primary key with only the key
// projected, FK join edges renamed with a "_to" suffix, plus a bounded
// closure over the first FK — enough rule variety to exercise the
// compiler's non-direct paths while staying schema-agnostic.
func SlimViewDef(db *relational.Database) *view.Def {
	d := view.NewDef("slim")
	for _, relName := range db.RelationNames() {
		r := db.Relation(relName)
		vr := d.Vertex(relName)
		if r.Schema.Key != "" {
			vr.Label(r.Schema.Key).Project(r.Schema.Key)
		} else {
			vr.ProjectAll()
		}
		for i, fk := range r.Schema.ForeignKeys {
			d.Edge(fk.Attr+"_to", relName, fk.Attr)
			if i == 0 {
				d.ClosureEdge(fk.Attr+"_closure", relName, fk.Attr, 3)
			}
		}
	}
	return d
}
