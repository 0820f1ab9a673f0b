package main

import (
	"fmt"
	"time"

	"her"
	"her/internal/core"
	"her/internal/ranking"
	"her/internal/shard"
)

// zeroLayers sets every per-layer metric to 0, so a workload only fills
// in the layers it exercises.
func zeroLayers(res *result) {
	for _, d := range perLayer {
		res.layer[d.name] = 0
	}
}

// setupLayers copies the set-up step medians into the per-layer metrics.
func setupLayers(res *result, steps map[string]float64) {
	for _, name := range []string{"her.build_s", "learn.train_mrho_s", "learn.train_ranker_s", "view.compile_s", "setup.warmup_s"} {
		res.layer[name] = steps[name]
	}
}

// loopLayers fills the generator-health and queue metrics of an
// open-loop phase.
func loopLayers(res *result, lr loopResult) {
	res.layer["gen.lag_p99_ms"] = lr.lagP99()
	res.layer["gen.achieved_ratio"] = lr.achieved()
	res.layer["server.queue_wait_ms"] = lr.queueWaitMean()
}

// tupleVertices resolves catalog tuples to their G_D vertices.
func tupleVertices(sys *her.System, refs []tupleRef) ([]her.VertexID, error) {
	out := make([]her.VertexID, 0, len(refs))
	for _, t := range refs {
		u, err := sys.TupleVertex(t.rel, t.id)
		if err != nil {
			return nil, fmt.Errorf("resolve %s/%d: %w", t.rel, t.id, err)
		}
		out = append(out, u)
	}
	return out, nil
}

// blockingLayers times the blocking candidate generator on every tuple
// vertex, then a cold ranker TopK on the candidates it returned, and
// fills the index and ranking metrics. matches is the number of
// confirmed pairs among those tuples, for the useful ratio.
func blockingLayers(res *result, tr *tracer, sys *her.System, us []her.VertexID, matches int) {
	op := tr.id()
	total := 0
	seen := map[her.VertexID]bool{}
	var visited []her.VertexID
	for _, u := range us {
		t := time.Now()
		cands := sys.Candidates(u)
		tr.add(0, 0, op, "index.candgen", t, time.Now())
		total += len(cands)
		for _, v := range cands {
			if !seen[v] {
				seen[v] = true
				visited = append(visited, v)
			}
		}
	}
	res.layer["index.cands_per_tuple"] = ratio(float64(total), float64(len(us)))
	res.layer["index.useful_ratio"] = ratio(float64(matches), float64(total))

	// A fresh ranker over the same graph and language model has an empty
	// ecache, so each TopK below is the cold selection.
	rg := sys.RankerG()
	fresh := ranking.NewRanker(rg.G, rg.LM, rg.MaxLen)
	k := sys.Thresholds().K
	if len(visited) > 200 {
		visited = visited[:200]
	}
	for _, v := range visited {
		t := time.Now()
		fresh.TopK(v, k)
		tr.add(0, 0, op, "ranking.topk", t, time.Now())
	}
	res.layer["ranking.ecache_entries"] = float64(sys.RankerD().CacheSize() + sys.RankerG().CacheSize())
}

// replayStats sums the matcher counters of replayed VParaMatch runs.
type replayStats struct {
	n                     int
	calls, hits, rechecks int
}

// replay runs a cold VParaMatch for each source through a fresh
// core.Matcher built over the system's graphs, rankers and parameters,
// with timed wrappers around M_v, M_ρ and the blocking generator. Each
// source gets a core.vpair span whose children are the index.candgen,
// embed.mv and nn.mrho calls; the ranker and the recursion stay in core
// self time. The system must be quiescent: the replay reads its graphs
// without the system lock.
func replay(tr *tracer, sys *her.System, sources []her.VertexID) (replayStats, error) {
	var st replayStats
	p := sys.CoreParams()
	mv, mrho := p.Mv, p.Mrho
	var parent, op int64
	p.Mv = func(a, b string) float64 {
		t := time.Now()
		v := mv(a, b)
		tr.add(0, parent, op, "embed.mv", t, time.Now())
		return v
	}
	p.Mrho = func(a, b []string) float64 {
		t := time.Now()
		v := mrho(a, b)
		tr.add(0, parent, op, "nn.mrho", t, time.Now())
		return v
	}
	gen := func(u her.VertexID) []her.VertexID {
		t := time.Now()
		c := sys.Candidates(u)
		tr.add(0, parent, op, "index.candgen", t, time.Now())
		return c
	}
	for _, u := range sources {
		m, err := core.NewMatcher(sys.GD, sys.G, sys.RankerD(), sys.RankerG(), p)
		if err != nil {
			return st, err
		}
		parent = tr.id()
		op = parent
		t := time.Now()
		m.VPair(u, gen)
		tr.add(parent, 0, op, "core.vpair", t, time.Now())
		c := m.Stats()
		st.n++
		st.calls += c.Calls
		st.hits += c.CacheHits
		st.rechecks += c.Rechecks
	}
	return st, nil
}

// coreLayers fills the ParaMatch, M_v and M_ρ metrics from replayed
// links, and checks that each core.vpair span is tiled by its children
// and its self time.
func coreLayers(res *result, ix spanIndex, st replayStats) error {
	if st.n == 0 {
		return nil
	}
	n := float64(st.n)
	res.layer["core.calls_per_link"] = float64(st.calls) / n
	res.layer["core.memo_hit_ratio"] = ratio(float64(st.hits), float64(st.hits+st.calls))
	res.layer["core.rechecks"] = float64(st.rechecks)
	var self time.Duration
	for _, s := range ix.byName["core.vpair"] {
		self += ix.self(s)
	}
	res.layer["core.self_ms_per_link"] = float64(self) / n / float64(time.Millisecond)
	res.layer["embed.mv_calls_per_link"] = float64(len(ix.byName["embed.mv"])) / n
	res.layer["embed.mv_us"] = ix.meanMicros("embed.mv")
	res.layer["nn.mrho_calls_per_link"] = float64(len(ix.byName["nn.mrho"])) / n
	res.layer["nn.mrho_us"] = ix.meanMicros("nn.mrho")
	return ix.tiles("core.vpair")
}

// finishTrace computes the span-derived metrics of a traced run — the
// blocking and ranker call times, and the replayed links' core, M_v and
// M_ρ metrics — and writes the spans out.
func finishTrace(res *result, tr *tracer, rs replayStats, path string) error {
	ix := indexSpans(tr.snapshot())
	res.layer["index.candgen_us"] = ix.meanMicros("index.candgen")
	res.layer["ranking.topk_us"] = ix.meanMicros("ranking.topk")
	if err := coreLayers(res, ix, rs); err != nil {
		res.mismatch("trace: %v", err)
	}
	return tr.write(path)
}

// histSnap is a point-in-time read of registry histograms and counters,
// so a phase's share is the difference of two reads.
type histSnap map[string]float64

// snapShard reads the sharded engine's stage histograms (summed over
// shards) and cache counters from the registry.
func snapShard(reg *her.MetricsRegistry, shards int) histSnap {
	s := histSnap{}
	for i := 0; i < shards; i++ {
		for _, stage := range []string{"queue_wait", "compute"} {
			h := reg.Histogram(fmt.Sprintf(`her_shard_%s_seconds{shard="%d"}`, stage, i), nil)
			s[stage+".n"] += float64(h.Count())
			s[stage+".sum"] += h.Sum()
		}
	}
	g := reg.Histogram(`her_shard_gather_seconds{op="vpair"}`, nil)
	s["gather.n"] = float64(g.Count())
	s["gather.sum"] = g.Sum()
	s["hits"] = float64(reg.Counter(`her_shard_cache_hits_total`).Value())
	s["misses"] = float64(reg.Counter(`her_shard_cache_misses_total`).Value())
	return s
}

// shardLayers fills the shard metrics from two registry reads and two
// engine snapshots bracketing the timed phase.
func shardLayers(res *result, before, after histSnap, i0, i1 shard.Info) {
	d := func(k string) float64 { return after[k] - before[k] }
	for _, stage := range []string{"queue_wait", "compute", "gather"} {
		res.layer["shard."+stage+"_ms"] = ratio(d(stage+".sum"), d(stage+".n")) * 1e3
	}
	res.layer["shard.cache_hit_ratio"] = ratio(d("hits"), d("hits")+d("misses"))
	survived := float64(i1.CacheSurvived - i0.CacheSurvived)
	evicted := float64(i1.CacheEvicted - i0.CacheEvicted)
	res.layer["shard.cache_survival_ratio"] = ratio(survived, survived+evicted)
	res.layer["shard.deltas_applied"] = float64(i1.DeltasApplied - i0.DeltasApplied)
	res.layer["shard.fragment_rebuilds"] = float64(i1.FragmentRebuilds - i0.FragmentRebuilds)
	res.layer["shard.full_rebuilds"] = float64(i1.FullRebuilds - i0.FullRebuilds)
}
