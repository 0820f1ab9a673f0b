package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"her"
	"her/internal/core"
)

// apair-batch: full relinks with APairParallel on the BSP engine, one
// pass after another, each on a fresh engine. No server, shard or write
// path runs; the whole candidate space goes through core, M_v, M_ρ and
// the ranker, plus BSP supersteps and messages.
const (
	apairEntities  = 150
	apairMinPasses = 3
	apairSample    = 16 // sources checked against sequential APairOf
)

// samePairs reports whether two sorted match lists are equal.
func samePairs(a, b []her.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pass is one timed relink and the live heap once it was done.
type pass struct {
	wall    time.Duration
	heap    float64
	matches []her.Pair
	stats   her.ParallelStats
}

// relink runs one full APairParallel pass with cold rankers, so every
// pass repeats the ranker's path selection as well as the matching.
func relink(sys *her.System, workers int, tr *tracer) (pass, error) {
	sys.RankerD().Reset()
	sys.RankerG().Reset()
	t := time.Now()
	matches, stats, err := sys.APairParallel(workers)
	end := time.Now()
	if tr != nil {
		id := tr.id()
		tr.add(id, 0, id, "bsp.apair_parallel", t, end)
	}
	return pass{wall: end.Sub(t), matches: core.SortPairs(matches), stats: stats}, err
}

// passes relinks until the window has passed and at least min passes
// ran. Every pass must return the first pass's matches.
func passes(sys *her.System, window time.Duration, min int, tr *tracer, res *result) ([]pass, error) {
	var out []pass
	workers := runtime.NumCPU()
	start := time.Now()
	for len(out) < min || time.Since(start) < window {
		p, err := relink(sys, workers, tr)
		res.attempted++
		if err != nil {
			res.failed++
			return out, fmt.Errorf("APairParallel: %w", err)
		}
		p.heap = heapMB()
		if len(out) > 0 && !samePairs(p.matches, out[0].matches) {
			res.mismatch("pass %d returned %d matches, pass 1 returned %d", len(out)+1, len(p.matches), len(out[0].matches))
		}
		out = append(out, p)
	}
	return out, nil
}

// passMillis returns the sorted pass wall times in milliseconds.
func passMillis(ps []pass) []float64 {
	ds := make([]time.Duration, len(ps))
	for i, p := range ps {
		ds[i] = p.wall
	}
	return sortedMillis(ds)
}

// checkSample compares the BSP result restricted to a seeded sample of
// sources with sequential System.APairOf on that sample.
func checkSample(sys *her.System, matches []her.Pair, seed int64, res *result) []her.VertexID {
	sources := sys.SourceVertices()
	rng := rand.New(rand.NewSource(seed))
	n := apairSample
	if n > len(sources) {
		n = len(sources)
	}
	sample := make([]her.VertexID, 0, n)
	in := map[her.VertexID]bool{}
	for _, i := range rng.Perm(len(sources))[:n] {
		sample = append(sample, sources[i])
		in[sources[i]] = true
	}
	var restricted []her.Pair
	for _, p := range matches {
		if in[p.U] {
			restricted = append(restricted, p)
		}
	}
	seq := core.SortPairs(sys.APairOf(sample))
	if !samePairs(restricted, seq) {
		res.mismatch("BSP matches of %d sampled sources: %d pairs, APairOf: %d pairs", n, len(restricted), len(seq))
	}
	return sample
}

func runAPairBatch(cfg config, res *result) error {
	entities := cfg.entities
	if entities == 0 {
		entities = apairEntities
	}
	s, steps, err := setupRuns(cfg, entities, nil)
	if err != nil {
		return err
	}
	sizes(res, s)
	res.env["workers"] = runtime.NumCPU()

	if !cfg.trace {
		ps, err := passes(s.sys, cfg.window(), apairMinPasses, nil, res)
		if err != nil {
			return err
		}
		// Between passes the heap holds the system and the last result;
		// within one it depends on how far the pass has got.
		heaps := make([]float64, len(ps))
		for i, p := range ps {
			heaps[i] = p.heap
		}
		heap := medianOf(heaps)
		matches := ps[0].matches
		checkSample(s.sys, matches, cfg.seed, res)
		set := make(map[her.Pair]bool, len(matches))
		for _, p := range matches {
			set[p] = true
		}
		ms := passMillis(ps)
		res.e2e["setup_s"] = steps["setup_s"]
		res.named["op_p50_ms"] = median(ms)
		res.e2e["heap_mb"] = heap
		res.e2e["link_f1"] = linkF1(set, s.d)
		res.named["link_f1_annotated"] = annotatedF1(set, s.d)
		namedTail(res, "op", ms, 0.99)
		res.env["passes"] = len(ps)
		res.env["candidate_pairs"] = ps[0].stats.CandidatePairs
		res.named["apair_s"] = median(ms) / 1e3
		return nil
	}

	zeroLayers(res)
	setupLayers(res, steps)
	plain, err := passes(s.sys, cfg.window()/2, 2, nil, res)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := passes(s.sys, cfg.window()/2, 2, tr, res)
	if err != nil {
		return err
	}
	res.layer["trace.overhead_ratio"] = ratio(median(passMillis(traced)), median(passMillis(plain))) - 1
	res.layer["gen.achieved_ratio"] = 1
	last := traced[len(traced)-1]
	st := last.stats
	res.layer["bsp.supersteps"] = float64(st.Supersteps)
	res.layer["bsp.messages"] = float64(st.Requests + st.Invalidations)
	res.layer["bsp.invalidations"] = float64(st.Invalidations)
	maxPairs, sum := 0, 0
	for _, n := range st.PerWorkerPairs {
		sum += n
		if n > maxPairs {
			maxPairs = n
		}
	}
	res.layer["bsp.worker_imbalance"] = ratio(float64(maxPairs), float64(sum)/float64(len(st.PerWorkerPairs)))
	var steps2 []float64
	for _, d := range st.SuperstepDurations {
		steps2 = append(steps2, float64(d)/float64(time.Millisecond))
	}
	res.layer["bsp.superstep_ms"] = meanOf(steps2)
	res.env["candidate_pairs"] = st.CandidatePairs

	sample := checkSample(s.sys, last.matches, cfg.seed, res)
	rs, err := replay(tr, s.sys, sample)
	if err != nil {
		return err
	}
	blockingLayers(res, tr, s.sys, s.sys.SourceVertices(), len(last.matches))
	return finishTrace(res, tr, rs, cfg.traceOut)
}
