package her

import (
	"sync"
	"testing"
)

// concurrencyFixture builds a small untrained system with a tuple
// mapping — enough structure for queries, cheap enough to race-test.
func concurrencyFixture(t *testing.T) (*System, VertexID, VertexID) {
	t.Helper()
	schema, err := NewSchema("product", []string{"name", "color"}, "name")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	db.Relation("product").MustInsert("Aurora Trail Runner 7", "red")

	g := NewGraph()
	p1 := g.AddVertex("product")
	g.MustAddEdge(p1, g.AddVertex("Aurora Trail Runner"), "productName")
	g.MustAddEdge(p1, g.AddVertex("red"), "hasColor")

	sys, err := New(db, g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srcs := sys.SourceVertices()
	if len(srcs) == 0 {
		t.Fatal("no source vertices")
	}
	return sys, srcs[0], p1
}

// TestCandidatesRaceWithAddGraphEdge pins the lock discipline of
// System.Candidates: the candidate generator is swapped whole by
// AddGraphEdge's index rebuild (under s.mu), so Candidates must fetch
// it under the same lock. Before the fix, this read raced with the
// rebuild; run with -race to regress it.
func TestCandidatesRaceWithAddGraphEdge(t *testing.T) {
	sys, src, p1 := concurrencyFixture(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sys.Candidates(src)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		v := sys.AddGraphVertex("accessory")
		if err := sys.AddGraphEdge(p1, v, "relatedTo"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestThresholdsRaceWithParallelAPair pins the snapshot discipline of
// APairParallel: the run parameters (σ, δ, k, metrics, generator,
// sources) must be read under s.mu before the engine starts, because
// SetThresholds mutates s.opts under that lock. Before the fix, the
// unlocked params read raced with the threshold write; run with -race
// to regress it. Readers of Options/Thresholds/CoreParams take the
// lock too, so they join the stampede here.
func TestThresholdsRaceWithParallelAPair(t *testing.T) {
	sys, _, _ := concurrencyFixture(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ths := []Thresholds{
			{Sigma: 0.4, Delta: 1, K: 2},
			{Sigma: 0.6, Delta: 2, K: 3},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := sys.SetThresholds(ths[i%len(ths)]); err != nil {
					t.Error(err)
					return
				}
				sys.Thresholds()
				sys.Options()
				sys.CoreParams()
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, _, err := sys.APairParallel(2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.APairParallelAsync(2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTrainRankerRaceWithShardConfig pins the lock discipline of
// TrainRanker: the new language model and every ranker rebuilt around
// it are installed under s.mu, the lock ShardConfig's snapshot reads
// them under. Before the fix, the unlocked install raced with the
// snapshot; run with -race to regress it.
func TestTrainRankerRaceWithShardConfig(t *testing.T) {
	sys, _, _ := concurrencyFixture(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sys.ShardConfig(1)
				sys.RankerD()
				sys.RankerG()
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := sys.TrainRanker(10, 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
