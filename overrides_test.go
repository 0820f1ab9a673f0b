package her

import (
	"testing"
)

// TestOverridesReconciliation: refuted pairs disappear from VPair/APair
// results and confirmed pairs appear, exactly as the verified-match
// semantics of the refinement loop requires.
func TestOverridesReconciliation(t *testing.T) {
	sys, _ := incrementalFixture(t)
	u, _ := sys.Mapping.VertexOf("product", 0)
	matches := sys.VPairVertex(u)
	if len(matches) != 1 {
		t.Fatalf("setup: %v", matches)
	}
	target := matches[0].V

	// Refute the algorithmic match: it must vanish everywhere.
	sys.Refine([]Feedback{{Pair: Pair{U: u, V: target}, IsMatch: false}})
	if got := sys.VPairVertex(u); len(got) != 0 {
		t.Errorf("refuted pair still returned: %v", got)
	}
	if sys.SPairVertices(u, target) {
		t.Error("refuted pair still matches via SPair")
	}
	if got := sys.APair(); len(got) != 0 {
		t.Errorf("refuted pair still in APair: %v", got)
	}

	// Confirm a pair the algorithm rejects: it must appear.
	other := sys.AddGraphVertex("product")
	sys.Refine([]Feedback{{Pair: Pair{U: u, V: other}, IsMatch: true}})
	foundV, foundA := false, false
	for _, m := range sys.VPairVertex(u) {
		if m.V == other {
			foundV = true
		}
	}
	for _, m := range sys.APair() {
		if m.U == u && m.V == other {
			foundA = true
		}
	}
	if !foundV || !foundA {
		t.Errorf("confirmed pair missing: vpair=%v apair=%v", foundV, foundA)
	}
	if !sys.SPairVertices(u, other) {
		t.Error("confirmed pair rejected via SPair")
	}
	if sys.Overrides() != 2 {
		t.Errorf("overrides = %d", sys.Overrides())
	}
}

// TestOverrideOrderDeterministic: confirmed overrides are collected
// from a map; the reconciliation must sort them so repeated identical
// queries return matches in an identical order (the order reaches
// serialized /vpair and /apair responses).
func TestOverrideOrderDeterministic(t *testing.T) {
	sys, _ := incrementalFixture(t)
	u, _ := sys.Mapping.VertexOf("product", 0)
	// Confirm many pairs so map iteration order would visibly scramble
	// the result if it leaked.
	var fb []Feedback
	for i := 0; i < 8; i++ {
		v := sys.AddGraphVertex("product")
		fb = append(fb, Feedback{Pair: Pair{U: u, V: v}, IsMatch: true})
	}
	sys.Refine(fb)

	first := sys.VPairVertex(u)
	if len(first) < 8 {
		t.Fatalf("setup: expected ≥8 matches, got %v", first)
	}
	for i := 0; i < 10; i++ {
		again := sys.VPairVertex(u)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d matches vs %d", i+2, len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("run %d: match order changed at %d: %v vs %v", i+2, j, again[j], first[j])
			}
		}
	}

	apFirst := sys.APair()
	for i := 0; i < 5; i++ {
		apAgain := sys.APair()
		if len(apAgain) != len(apFirst) {
			t.Fatalf("APair run %d: %d vs %d", i+2, len(apAgain), len(apFirst))
		}
		for j := range apAgain {
			if apAgain[j] != apFirst[j] {
				t.Fatalf("APair run %d: order changed at %d", i+2, j)
			}
		}
	}
}

// TestOverrideScope: a confirmed pair for tuple A must not leak into
// VPair results of tuple B.
func TestOverrideScope(t *testing.T) {
	sys, _ := incrementalFixture(t)
	id, err := sys.AddTuple("product", "Other Product 9", "green")
	if err != nil {
		t.Fatal(err)
	}
	uA, _ := sys.Mapping.VertexOf("product", 0)
	uB, _ := sys.Mapping.VertexOf("product", id)
	v := sys.AddGraphVertex("product")
	sys.Refine([]Feedback{{Pair: Pair{U: uA, V: v}, IsMatch: true}})
	for _, m := range sys.VPairVertex(uB) {
		if m.V == v {
			t.Error("override for tuple A leaked into tuple B's VPair")
		}
	}
}

// TestOverridesSurviveRecompile: a new tuple that resolves a dangling
// foreign key recompiles the direct view, which renumbers its vertices;
// user-verified verdicts must follow their tuples to the new ids.
func TestOverridesSurviveRecompile(t *testing.T) {
	brand, err := NewSchema("brand", []string{"name", "country"}, "name")
	if err != nil {
		t.Fatal(err)
	}
	product, err := NewSchema("product", []string{"name", "color", "brand"}, "name",
		ForeignKey{Attr: "brand", RefRelation: "brand"})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(brand, product)
	db.Relation("product").MustInsert("Aurora Trail Runner 7", "red", "Acme") // dangles until Acme arrives
	g := NewGraph()
	g.MustAddEdge(g.AddVertex("product"), g.AddVertex("Aurora Trail Runner"), "productName")
	sys, err := New(db, g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	confirmed := sys.AddGraphVertex("product")
	sys.Refine([]Feedback{{Pair: Pair{U: u, V: confirmed}, IsMatch: true}})
	if ok, err := sys.SPair("product", 0, confirmed); err != nil || !ok {
		t.Fatalf("setup: SPair = %v, %v", ok, err)
	}

	if _, err := sys.AddTuple("brand", "Acme", "US"); err != nil {
		t.Fatal(err)
	}
	u2, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	if u2 == u {
		t.Fatalf("product/0 kept vertex %d: the dangling FK did not recompile the direct view", u)
	}
	if ok, err := sys.SPair("product", 0, confirmed); err != nil || !ok {
		t.Fatalf("override lost across the recompile: SPair = %v, %v", ok, err)
	}
	found := false
	for _, m := range sys.VPairVertex(u2) {
		found = found || m.V == confirmed
	}
	if !found {
		t.Error("confirmed pair missing from VPair after the recompile")
	}
	if n := sys.Overrides(); n != 1 {
		t.Errorf("overrides = %d, want 1", n)
	}
}
