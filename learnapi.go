package her

import (
	"fmt"

	"her/internal/core"
	"her/internal/embed"
	"her/internal/graph"
	"her/internal/learn"
	"her/internal/lstm"
	"her/internal/nn"
	"her/internal/ranking"
)

// TrainPathModel trains the M_ρ metric network (the paper's 3-layer
// similarity model over BERT embeddings, here over hashed sequence
// embeddings) on annotated path pairs, then resets cached decisions.
func (s *System) TrainPathModel(pairs []PathPair, epochs int) error {
	if len(pairs) == 0 {
		return fmt.Errorf("her: no path pairs to train on")
	}
	if epochs <= 0 {
		epochs = 60
	}
	o := s.Options() // snapshot: SetThresholds may mutate s.opts concurrently
	in := 4 * o.EmbeddingDim
	model := nn.MustMLP([]int{in, o.MetricHidden, 1}, nn.ReLU, o.Seed)
	samples := make([]nn.Sample, 0, len(pairs))
	for _, p := range pairs {
		y := 0.0
		if p.Match {
			y = 1
		}
		samples = append(samples, nn.Sample{X: s.sc.pathFeatures(p.A, p.B), Y: y})
	}
	model.TrainBCE(samples, nn.TrainConfig{
		Epochs: epochs, LearnRate: 0.005, BatchSize: 8, Seed: o.Seed,
	})
	s.sc.metric = model
	s.sc.invalidateRho()
	s.ResetMatchState()
	return nil
}

// MetricAccuracy evaluates the trained M_ρ on annotated path pairs at a
// 0.5 decision threshold.
func (s *System) MetricAccuracy(pairs []PathPair) float64 {
	if s.sc.metric == nil || len(pairs) == 0 {
		return 0
	}
	var samples []nn.Sample
	for _, p := range pairs {
		y := 0.0
		if p.Match {
			y = 1
		}
		samples = append(samples, nn.Sample{X: s.sc.pathFeatures(p.A, p.B), Y: y})
	}
	return s.sc.metric.Accuracy(samples)
}

// TrainRanker trains the LSTM path language model M_r on max-PRA paths
// collected from sampled vertices of both graphs (Section IV's training
// preparation), then rebuilds the rankers around it.
func (s *System) TrainRanker(sampleVertices, epochs int) error {
	if sampleVertices <= 0 {
		sampleVertices = 200
	}
	if epochs <= 0 {
		epochs = 15
	}
	starts := func(g *graph.Graph) []graph.VID {
		var out []graph.VID
		step := g.NumVertices()/sampleVertices + 1
		for i := 0; i < g.NumVertices(); i += step {
			v := graph.VID(i)
			if !g.IsLeaf(v) {
				out = append(out, v)
			}
		}
		return out
	}
	s.mu.Lock()
	o, gd := s.opts, s.GD // snapshot: SetThresholds and recompiles mutate them concurrently
	s.mu.Unlock()
	corpus := ranking.TrainingPaths(gd, starts(gd), o.MaxPathLen, ranking.RejectPassThrough(gd))
	corpus = append(corpus, ranking.TrainingPaths(s.G, starts(s.G), o.MaxPathLen, ranking.RejectPassThrough(s.G))...)
	if len(corpus) == 0 {
		return fmt.Errorf("her: empty ranker training corpus")
	}
	vocab := lstm.NewVocab(append(embed.LabelVocabulary(gd), embed.LabelVocabulary(s.G)...))
	lm := lstm.New(vocab, o.LSTMEmbed, o.LSTMHidden, o.Seed)
	lm.Train(corpus, lstm.TrainConfig{
		Epochs: epochs, LearnRate: 0.05, Clip: 5, Seed: o.Seed,
	})
	// The model is built aside and installed whole under the lock, with
	// every ranker rebuilt around it: serving paths and shard snapshots
	// read the model and rankers under the same lock.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installLMLocked(lm)
	return s.resetMatcherLocked()
}

// LearnThresholds runs the paper's random search over (σ, δ, k) against
// a validation set, installs the best thresholds and returns them.
func (s *System) LearnThresholds(val []Annotation, space learn.SearchSpace, trials int) (Thresholds, float64, error) {
	if len(val) == 0 {
		return Thresholds{}, 0, fmt.Errorf("her: empty validation set")
	}
	if trials <= 0 {
		trials = 30
	}
	best, score, err := learn.RandomSearch(space, trials, s.Options().Seed, func(th Thresholds) float64 {
		return s.EvaluateWith(th, val).F1()
	})
	if err != nil {
		return Thresholds{}, 0, err
	}
	if err := s.SetThresholds(best); err != nil {
		return Thresholds{}, 0, err
	}
	return best, score, nil
}

// EvaluateWith scores annotations under trial thresholds using a fresh
// matcher (shared rankers and scorers), without touching system state.
func (s *System) EvaluateWith(th Thresholds, anns []Annotation) learn.Eval {
	p := core.Params{Mv: s.sc.Mv, Mrho: s.sc.Mrho, Sigma: th.Sigma, Delta: th.Delta, K: th.K}
	s.mu.Lock()
	gd, rankerD, rankerG := s.GD, s.direct.vs.rankerD, s.rankerG
	s.mu.Unlock()
	m, err := core.NewMatcher(gd, s.G, rankerD, rankerG, p)
	if err != nil {
		return learn.Eval{}
	}
	return learn.Evaluate(func(pair core.Pair) bool {
		return m.Match(pair.U, pair.V)
	}, anns)
}

// Evaluate scores annotations under the current system state (including
// overrides).
func (s *System) Evaluate(anns []Annotation) learn.Eval {
	return learn.Evaluate(s.Predictor(), anns)
}

// Refine applies one round of user feedback (Section IV, Exp-4): voted
// verdicts become verified overrides, and the M_ρ metric network is
// fine-tuned with a triplet (margin ranking) loss built from the
// feedback pairs' aligned path features.
func (s *System) Refine(fb []Feedback) {
	if len(fb) == 0 {
		return
	}
	var pos, neg [][]float64 // path features from FN / FP pairs
	s.mu.Lock()
	seed := s.opts.Seed // captured here: the fine-tune below runs unlocked
	for _, f := range fb {
		s.direct.vs.overrides[f.Pair] = f.IsMatch
		feats := s.alignedPathFeaturesLocked(f.Pair)
		if f.IsMatch {
			pos = append(pos, feats...)
		} else {
			neg = append(neg, feats...)
		}
	}
	s.mu.Unlock()

	if s.sc.metric != nil && len(pos) > 0 && len(neg) > 0 {
		var triplets []nn.Triplet
		for i, p := range pos {
			triplets = append(triplets, nn.Triplet{Pos: p, Neg: neg[i%len(neg)]})
		}
		s.sc.metric.TrainTriplet(triplets, 0.5, nn.TrainConfig{
			Epochs: 5, LearnRate: 0.001, BatchSize: 8, Seed: seed,
		})
		s.sc.invalidateRho()
	}
	s.ResetMatchState()
}

// alignedPathFeaturesLocked pairs the top-k selected paths of a
// feedback pair's two sides by rank and returns their metric features —
// the "path-path matches" the paper marks as similar or dissimilar.
// Callers hold s.mu (k lives in s.opts).
func (s *System) alignedPathFeaturesLocked(p Pair) [][]float64 {
	du := s.direct.vs.rankerD.TopK(p.U, s.opts.K)
	dv := s.rankerG.TopK(p.V, s.opts.K)
	n := len(du)
	if len(dv) < n {
		n = len(dv)
	}
	var out [][]float64
	for i := 0; i < n; i++ {
		out = append(out, s.sc.pathFeatures(du[i].Path.EdgeLabels, dv[i].Path.EdgeLabels))
	}
	return out
}

// Overrides reports how many user-verified pairs are installed.
func (s *System) Overrides() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.direct.vs.overrides)
}

// MrhoScore exposes the raw M_ρ score for diagnostics and examples.
func (s *System) MrhoScore(a, b []string) float64 { return s.sc.Mrho(a, b) }
