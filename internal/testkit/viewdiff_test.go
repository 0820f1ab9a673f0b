package testkit

import (
	"context"
	"testing"

	"her"
	"her/internal/graph"
	"her/internal/relational"
	"her/internal/shard"
	"her/internal/view"
)

// goldenViewDB mirrors the rdb2rdf golden fixture: maker(name, country)
// and part(sku, color, maker→maker), nulls and a null FK included.
func goldenViewDB(t *testing.T) *relational.Database {
	t.Helper()
	maker, err := relational.NewSchema("maker", []string{"name", "country"}, "name")
	if err != nil {
		t.Fatal(err)
	}
	part, err := relational.NewSchema("part", []string{"sku", "color", "maker"}, "sku",
		relational.ForeignKey{Attr: "maker", RefRelation: "maker"})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(maker, part)
	db.Relation("maker").MustInsert("Acme", "US")
	db.Relation("maker").MustInsert("Umbrella", relational.Null)
	db.Relation("part").MustInsert("bolt-1", "red", "Acme")
	db.Relation("part").MustInsert("nut-2", relational.Null, "Umbrella")
	db.Relation("part").MustInsert("cog-3", "blue", relational.Null)
	return db
}

// TestDirectViewDifferentialGolden pins the built-in direct view
// byte-identical to rdb2rdf.Map on the golden database.
func TestDirectViewDifferentialGolden(t *testing.T) {
	if err := DirectViewDiff(goldenViewDB(t)); err != nil {
		t.Fatal(err)
	}
}

// TestDirectViewDifferentialGenerated sweeps the byte-identity claim
// over 120 generated schemas/databases — every shape GenWorkload can
// produce (optional dimension relation, nullable attributes, null and
// valid FKs).
func TestDirectViewDifferentialGenerated(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		w, err := GenWorkload(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := DirectViewDiff(w.DB); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// mutationViewDB builds the database the mutation differential starts
// from: one dimension row and two main rows, one of which references a
// dimension key that does not exist yet (a dangling FK the sequence
// later resolves).
func mutationViewDB(t *testing.T) *relational.Database {
	t.Helper()
	dim, err := relational.NewSchema("dim", []string{"dkey", "country"}, "dkey")
	if err != nil {
		t.Fatal(err)
	}
	main, err := relational.NewSchema("main", []string{"key", "color", "ref"}, "key",
		relational.ForeignKey{Attr: "ref", RefRelation: "dim"})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(dim, main)
	db.Relation("dim").MustInsert("dim A", "us")
	db.Relation("main").MustInsert("entity 0", "red", "dim A")
	db.Relation("main").MustInsert("entity 1", "blue", "dim B") // dangling until dim B arrives
	return db
}

// smallTargetGraph builds a tiny G with a replica of the first main
// tuple so view queries have something to match.
func smallTargetGraph() *graph.Graph {
	g := graph.New()
	v := g.AddVertex("entity 0")
	g.MustAddEdge(v, g.AddVertex("entity 0"), "key")
	g.MustAddEdge(v, g.AddVertex("red"), "color")
	return g
}

// TestViewMutationDifferential drives a mutation sequence through a
// System hosting the slim view and checks, after every step, that the
// incrementally maintained views — slim and the built-in direct one —
// are canonically equal to a re-extraction from scratch, including the
// step that resolves a dangling FK, which append-only extension cannot
// express and must recompile.
func TestViewMutationDifferential(t *testing.T) {
	db := mutationViewDB(t)
	sys, err := her.New(db, smallTargetGraph(), her.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddViewDef(SlimViewDef(db)); err != nil {
		t.Fatal(err)
	}
	vh, err := sys.View("slim")
	if err != nil {
		t.Fatal(err)
	}
	dh, err := sys.View(her.DirectViewName)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		for _, c := range []struct {
			h   *her.ViewHandle
			def *view.Def
		}{{vh, SlimViewDef(sys.DB)}, {dh, view.Direct(sys.DB)}} {
			h, def := c.h, c.def
			got, err := h.CanonicalDump()
			if err != nil {
				t.Fatalf("%s: %s: %v", step, h.Name(), err)
			}
			g, m, err := view.Compile(def, sys.DB)
			if err != nil {
				t.Fatalf("%s: %s: recompile: %v", step, h.Name(), err)
			}
			if want := view.CanonicalDump(g, m, sys.DB); got != want {
				t.Fatalf("%s: maintained view %s diverges from re-extraction:\nmaintained:\n%s\nrecompiled:\n%s",
					step, h.Name(), got, want)
			}
		}
	}
	check("initial")
	gen0 := vh.Generation()

	if _, err := sys.AddTuple("main", "entity 2", "green", "dim A"); err != nil {
		t.Fatal(err)
	}
	check("append main tuple")

	// dim B resolves entity 1's dangling reference: extension alone
	// cannot add the missing edge to an old vertex, so this must
	// recompile (observable as a canonical dump that now has the edge).
	if _, err := sys.AddTuple("dim", "dim B", "fr"); err != nil {
		t.Fatal(err)
	}
	check("resolve dangling FK")

	if _, err := sys.AddTuple("main", "entity 3", relational.Null, "dim B"); err != nil {
		t.Fatal(err)
	}
	check("append with null attr")

	v := sys.AddGraphVertex("entity 2")
	if err := sys.AddGraphEdge(v, v, "self"); err != nil {
		t.Fatal(err)
	}
	check("graph mutations")

	if vh.Generation() <= gen0 {
		t.Fatalf("view generation did not advance: %d -> %d", gen0, vh.Generation())
	}
}

// TestViewDeltaReplayDifferential runs the same mutation sequence with
// a sharded engine attached to the view's delta log: after every write
// the engine replays the view's deltas against its private snapshots,
// and its answers must equal the view's sequential matcher — including
// across the DeltaReset the dangling-FK resolution records.
func TestViewDeltaReplayDifferential(t *testing.T) {
	db := mutationViewDB(t)
	sys, err := her.New(db, smallTargetGraph(), her.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddViewDef(SlimViewDef(db)); err != nil {
		t.Fatal(err)
	}
	vh, err := sys.View("slim")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.NewEngine(vh.ShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	compare := func(step string) {
		t.Helper()
		for _, relName := range []string{"dim", "main"} {
			for _, tup := range sys.DB.Relation(relName).Tuples {
				seq, err := vh.VPair(relName, tup.ID)
				if err != nil {
					t.Fatalf("%s: seq VPair(%s/%d): %v", step, relName, tup.ID, err)
				}
				u, err := vh.TupleVertex(relName, tup.ID)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				shd, err := eng.VPair(ctx, u)
				if err != nil {
					t.Fatalf("%s: sharded VPair(%s/%d): %v", step, relName, tup.ID, err)
				}
				if !EqualPairs(SortPairs(seq), SortPairs(shd)) {
					t.Fatalf("%s: VPair(%s/%d) diverges:\n%s", step, relName, tup.ID,
						DiffPairs("sequential", seq, "sharded", shd))
				}
			}
		}
	}
	compare("initial")

	if _, err := sys.AddTuple("main", "entity 2", "green", "dim A"); err != nil {
		t.Fatal(err)
	}
	compare("after append")

	if _, err := sys.AddTuple("dim", "dim B", "fr"); err != nil {
		t.Fatal(err)
	}
	compare("after reset (dangling FK resolved)")

	v := sys.AddGraphVertex("entity 2")
	if err := sys.AddGraphEdge(v, v, "self"); err != nil {
		t.Fatal(err)
	}
	compare("after graph mutations")
}

// TestViewShardedDifferential is the acceptance gate: sharded serving
// over a NON-direct view answers exactly like the view's sequential
// matcher at 1, 2, 4 and 8 shards, on generated workloads.
func TestViewShardedDifferential(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 4; seed++ {
		w, err := GenWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := her.New(w.DB, w.G, her.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddViewDef(SlimViewDef(w.DB)); err != nil {
			t.Fatal(err)
		}
		vh, err := sys.View("slim")
		if err != nil {
			t.Fatal(err)
		}
		seqAll := SortPairs(vh.APair())
		for _, shards := range []int{1, 2, 4, 8} {
			eng, err := shard.NewEngine(vh.ShardConfig(shards))
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			got, err := eng.APair(ctx, vh.SourceVertices())
			if err != nil {
				eng.Close()
				t.Fatalf("seed %d shards %d: APair: %v", seed, shards, err)
			}
			if !EqualPairs(seqAll, SortPairs(got)) {
				diff := DiffPairs("sequential", seqAll, "sharded", got)
				eng.Close()
				t.Fatalf("seed %d shards %d: APair diverges:\n%s", seed, shards, diff)
			}
			for _, relName := range w.DB.RelationNames() {
				for _, tup := range w.DB.Relation(relName).Tuples {
					u, err := vh.TupleVertex(relName, tup.ID)
					if err != nil {
						continue // tuple filtered out of the view
					}
					seq, err := vh.VPair(relName, tup.ID)
					if err != nil {
						eng.Close()
						t.Fatalf("seed %d: %v", seed, err)
					}
					shd, err := eng.VPair(ctx, u)
					if err != nil {
						eng.Close()
						t.Fatalf("seed %d shards %d: %v", seed, shards, err)
					}
					if !EqualPairs(SortPairs(seq), SortPairs(shd)) {
						diff := DiffPairs("sequential", seq, "sharded", shd)
						eng.Close()
						t.Fatalf("seed %d shards %d: VPair(%s/%d) diverges:\n%s",
							seed, shards, relName, tup.ID, diff)
					}
				}
			}
			eng.Close()
		}
	}
}
