package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"her"
	"her/internal/dataset"
	"her/internal/learn"
)

// Thresholds σ/δ/k for every workload: the ones herbench uses for the
// Synthetic dataset.
var thresholds = her.Thresholds{Sigma: 0.8, Delta: 1.6, K: 15}

// pathPairRepeats is how many times the annotated path pairs are
// repeated to train M_ρ. herbench uses 20; 5 gives the same F1 at a
// quarter of the set-up time.
const pathPairRepeats = 5

// tupleRef addresses one tuple of the catalog.
type tupleRef struct {
	rel string
	id  int
}

// system is one built HER instance and how long each set-up step took.
type system struct {
	d       *her.Dataset
	sys     *her.System
	reg     *her.MetricsRegistry
	catalog []tupleRef // every tuple of every relation at build time

	generate, build, trainMrho, trainRanker, viewCompile, warmup time.Duration
}

// total is the build's set-up time, without the warm-up.
func (s *system) total() time.Duration {
	return s.generate + s.build + s.trainMrho + s.trainRanker + s.viewCompile
}

// buildSystem generates the Synthetic dataset for seed, builds and
// trains a System over it with a metrics registry, and hosts the
// "mirror" view beside the direct one. The seed sets both the dataset
// seed and the model seed. quick trains for a few epochs only, for the
// benchmark's own smoke tests.
func buildSystem(seed int64, entities int, quick bool) (*system, error) {
	mrhoEpochs, rankerEpochs := 0, 10 // 0: TrainPathModel's default of 60
	if quick {
		mrhoEpochs, rankerEpochs = 3, 1
	}
	s := &system{}
	t := time.Now()
	cfg, _ := dataset.ByName("Synthetic", entities)
	cfg.Seed = seed
	d, err := her.GenerateCustomDataset(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	s.d = d
	s.generate = time.Since(t)

	t = time.Now()
	s.reg = her.NewMetrics()
	sys, err := her.New(d.DB, d.G, her.Options{Seed: seed, Metrics: s.reg})
	if err != nil {
		return nil, fmt.Errorf("build system: %w", err)
	}
	s.sys = sys
	s.build = time.Since(t)

	t = time.Now()
	training := make([]her.PathPair, 0, pathPairRepeats*len(d.PathPairs))
	for i := 0; i < pathPairRepeats; i++ {
		training = append(training, d.PathPairs...)
	}
	if err := sys.TrainPathModel(training, mrhoEpochs); err != nil {
		return nil, fmt.Errorf("train M_rho: %w", err)
	}
	s.trainMrho = time.Since(t)

	t = time.Now()
	if err := sys.TrainRanker(120, rankerEpochs); err != nil {
		return nil, fmt.Errorf("train ranker: %w", err)
	}
	if err := sys.SetThresholds(thresholds); err != nil {
		return nil, fmt.Errorf("set thresholds: %w", err)
	}
	s.trainRanker = time.Since(t)

	t = time.Now()
	if err := sys.AddViewDef(mirrorViewDef(d.DB)); err != nil {
		return nil, fmt.Errorf("add view: %w", err)
	}
	s.viewCompile = time.Since(t)

	for _, rel := range d.DB.RelationNames() {
		for _, tp := range d.DB.Relation(rel).Tuples {
			s.catalog = append(s.catalog, tupleRef{rel: rel, id: tp.ID})
		}
	}
	return s, nil
}

// sizes records the input sizes in the environment block: tuples, |G|,
// |G_D| and the blocking candidate pairs of the tuple vertices.
func sizes(res *result, s *system) {
	pairs := 0
	for _, t := range s.catalog {
		if u, err := s.sys.TupleVertex(t.rel, t.id); err == nil {
			pairs += len(s.sys.Candidates(u))
		}
	}
	res.env["entities"] = s.d.Config.NumEntities
	res.env["tuples"] = len(s.catalog)
	res.env["g_size"] = s.sys.G.Size()
	res.env["gd_size"] = s.sys.GD.Size()
	res.env["blocking_pairs"] = pairs
}

// mirrorViewDef builds a direct-shaped rule view named "mirror": every
// relation a vertex rule with all attributes projected, every foreign
// key a single-step edge. It does the same matching work as the direct
// mapping, through the per-view serving path.
func mirrorViewDef(db *her.Database) *her.ViewDef {
	d := her.NewViewDef("mirror")
	for _, rel := range db.RelationNames() {
		d.Vertex(rel).ProjectAll()
	}
	for _, rel := range db.RelationNames() {
		for _, fk := range db.Relation(rel).Schema.ForeignKeys {
			d.Edge(fk.Attr, rel, fk.Attr)
		}
	}
	return d
}

// setupRuns builds the system n times and keeps the last one, which
// warm then prepares for the workload. Each step's time is its median
// over the n builds; setup_s is the median build. The warm-up runs once
// and is reported on its own (setup.warmup_s): repeating the build is
// what makes setup_s steady, and one warm-up, a single pass of cold
// matching, would carry its whole run-to-run spread into it.
func setupRuns(cfg config, entities int, warm func(*system) error) (*system, map[string]float64, error) {
	n := cfg.setups
	if n < 1 {
		n = 1
	}
	steps := map[string][]float64{}
	var s *system
	for i := 0; i < n; i++ {
		s = nil // let the previous system be collected before the next build
		var err error
		if s, err = buildSystem(cfg.seed, entities, cfg.quick); err != nil {
			return nil, nil, err
		}
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"setup_s", s.total()},
			{"her.build_s", s.generate + s.build},
			{"learn.train_mrho_s", s.trainMrho},
			{"learn.train_ranker_s", s.trainRanker},
			{"view.compile_s", s.viewCompile},
		} {
			steps[st.name] = append(steps[st.name], st.d.Seconds())
		}
	}
	if warm != nil {
		t := time.Now()
		if err := warm(s); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		s.warmup = time.Since(t)
	}
	out := map[string]float64{"setup.warmup_s": s.warmup.Seconds()}
	for name, xs := range steps {
		out[name] = medianOf(xs)
	}
	return s, out, nil
}

// get issues one GET through the handler and returns status and body.
func get(h http.Handler, url string) (int, []byte) {
	req := httptest.NewRequest("GET", url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// linkF1 scores a match set against the generator's full ground truth:
// main-relation tuple e < NumEntities refers to G entity e and to no
// other vertex, and the remaining tuples refer to none. Every tuple
// counts, so the score moves far less from seed to seed than F1 over
// the few annotated pairs of Truth, which annotatedF1 reports.
func linkF1(matches map[her.Pair]bool, d *her.Dataset) float64 {
	tuple := make(map[her.VertexID]int, len(d.TupleVertices))
	for e, u := range d.TupleVertices {
		tuple[u] = e
	}
	predicted, correct := 0, 0
	for p := range matches {
		e, ok := tuple[p.U]
		if !ok {
			continue
		}
		predicted++
		if e < d.Config.NumEntities && d.EntityVertices[e] == p.V {
			correct++
		}
	}
	prec := ratio(float64(correct), float64(predicted))
	rec := ratio(float64(correct), float64(d.Config.NumEntities))
	return ratio(2*prec*rec, prec+rec)
}

// annotatedF1 scores a match set against the dataset's Truth
// annotations, the paper's evaluation protocol.
func annotatedF1(matches map[her.Pair]bool, d *her.Dataset) float64 {
	return learn.Evaluate(func(p her.Pair) bool { return matches[p] }, d.Truth).F1()
}
