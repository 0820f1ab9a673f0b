package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"her"
	"her/internal/server"
)

// serve-hot: warm reads of an existing catalog through the sequential
// server (herserve's default mode: metrics registry and flight recorder
// on). Every answer is a memo hit, so the work is request parsing and
// rendering, System.mu, the blocking candgen VPair re-runs on every
// call, the memo lookups and view routing.
const (
	hotEntities = 150
	// hotRate is a tenth of the measured capacity, not the half the
	// open loops of ingest-link run at: at 1,000 reads/s the median read
	// moved fourfold from run to run on a shared two-CPU machine, as
	// slow spells of the host pushed the server into queueing.
	hotRate  = 200.0 // offered reads per second
	hotSLOMs = 10.0  // p99 limit of the capacity ladder
	hotStep  = 500 * time.Millisecond
)

// hotLadder is the capacity ladder's offered rates, in reads per
// second; it runs past the measured capacity of about 2,000.
var hotLadder = []float64{400, 800, 1200, 1600, 2000, 2500, 3000}

// hotState is the warmed serving state: the server, the request URLs
// and the answer each must return.
type hotState struct {
	srv        *server.Server
	direct     []string // /vpair per catalog tuple
	mirror     []string // /vpair?view=mirror for a quarter of the tuples
	mirrorBase []string // the direct URL of each mirror URL's tuple
	spair      []string // /spair per catalog tuple
	expected   map[string][]byte
	matches    map[her.Pair]bool
}

// matchVertices decodes the vertex ids of a /vpair answer.
func matchVertices(body []byte) ([]int32, error) {
	var resp struct {
		Matches []struct {
			Vertex int32 `json:"vertex"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make([]int32, len(resp.Matches))
	for i, m := range resp.Matches {
		out[i] = m.Vertex
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// sameVertices reports whether an answer lists exactly the G vertices
// of pairs.
func sameVertices(got []int32, pairs []her.Pair) bool {
	want := make([]int32, len(pairs))
	for i, p := range pairs {
		want[i] = int32(p.V)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// warmHot computes every tuple's matches once with System.VPair, then
// records the server's answer for each request the workload will send,
// checking it against those matches. The mirror view is warmed on a
// seeded quarter of the tuples; its answers must equal the direct ones.
func warmHot(s *system, seed int64) (*hotState, error) {
	st := &hotState{srv: server.New(s.sys), expected: map[string][]byte{}, matches: map[her.Pair]bool{}}
	vh, err := s.sys.View("mirror")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	inMirror := map[int]bool{}
	for _, i := range rng.Perm(len(s.catalog))[:(len(s.catalog)+3)/4] {
		inMirror[i] = true
	}
	for i, t := range s.catalog {
		pairs, err := s.sys.VPair(t.rel, t.id)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			st.matches[p] = true
		}
		url := fmt.Sprintf("/vpair?rel=%s&tuple=%d", t.rel, t.id)
		code, body := get(st.srv, url)
		if code != 200 {
			return nil, fmt.Errorf("%s: status %d", url, code)
		}
		got, err := matchVertices(body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", url, err)
		}
		if !sameVertices(got, pairs) {
			return nil, fmt.Errorf("%s: %w: server %v, System.VPair %v", url, errMismatch, got, pairs)
		}
		st.direct = append(st.direct, url)
		st.expected[url] = body

		// /spair probes a confirmed match when there is one, otherwise
		// the first blocking candidate: both answers are memo hits.
		u, err := s.sys.TupleVertex(t.rel, t.id)
		if err != nil {
			return nil, err
		}
		v := her.VertexID(0)
		if len(pairs) > 0 {
			v = pairs[0].V
		} else if cands := s.sys.Candidates(u); len(cands) > 0 {
			v = cands[0]
		}
		surl := fmt.Sprintf("/spair?rel=%s&tuple=%d&vertex=%d", t.rel, t.id, v)
		want, err := s.sys.SPair(t.rel, t.id, v)
		if err != nil {
			return nil, err
		}
		code, sbody := get(st.srv, surl)
		var sresp struct {
			Match bool `json:"match"`
		}
		if code != 200 || json.Unmarshal(sbody, &sresp) != nil || sresp.Match != want {
			return nil, fmt.Errorf("%s: %w: status %d body %s, System.SPair %v", surl, errMismatch, code, sbody, want)
		}
		st.spair = append(st.spair, surl)
		st.expected[surl] = sbody

		if inMirror[i] {
			if _, err := vh.VPair(t.rel, t.id); err != nil {
				return nil, err
			}
			murl := fmt.Sprintf("/vpair?view=mirror&rel=%s&tuple=%d", t.rel, t.id)
			code, mbody := get(st.srv, murl)
			if code != 200 || !bytes.Equal(mbody, body) {
				return nil, fmt.Errorf("%s: %w: status %d, answer differs from the direct view", murl, errMismatch, code)
			}
			st.mirror = append(st.mirror, murl)
			st.mirrorBase = append(st.mirrorBase, url)
			st.expected[murl] = mbody
		}
	}
	return st, nil
}

// hotOps draws the serve-hot mix: about 15% /spair, the rest /vpair of
// which a quarter address the mirror view, over uniformly drawn tuples.
func hotOps(st *hotState, rng *rand.Rand, tr *tracer) func(int) op {
	return func(int) op {
		var url string
		switch {
		case rng.Float64() < 0.15:
			url = st.spair[rng.Intn(len(st.spair))]
		case rng.Float64() < 0.25:
			url = st.mirror[rng.Intn(len(st.mirror))]
		default:
			url = st.direct[rng.Intn(len(st.direct))]
		}
		root := tr.id()
		return op{kind: "read", root: root, run: func(start time.Time) error {
			code, body := get(st.srv, url)
			tr.add(0, root, root, "server.serve", start, time.Now())
			if code != 200 {
				return fmt.Errorf("%s: %w %d", url, errStatus, code)
			}
			if !bytes.Equal(body, st.expected[url]) {
				return fmt.Errorf("%s: %w", url, errMismatch)
			}
			return nil
		}}
	}
}

func runServeHot(cfg config, res *result) error {
	entities := cfg.entities
	if entities == 0 {
		entities = hotEntities
	}
	rate := cfg.rate
	if rate == 0 {
		rate = hotRate
	}
	var st *hotState
	s, steps, err := setupRuns(cfg, entities, func(s *system) error {
		var err error
		st, err = warmHot(s, cfg.seed)
		return err
	})
	if err != nil {
		return err
	}
	sizes(res, s)
	res.env["offered_rate"] = rate
	inflight := runtime.NumCPU()
	rng := rand.New(rand.NewSource(cfg.seed))

	if !cfg.trace {
		hs := startHeapSampler(cfg.window() / 10)
		lr := openLoop(rate, cfg.window(), time.Second, inflight, hotOps(st, rng, nil))
		heap := hs.finish()
		tally(res, lr)
		genHealth(res, lr)
		lat := lr.latencies("read")
		res.e2e["setup_s"] = steps["setup_s"]
		res.named["op_p50_ms"] = median(lat)
		res.e2e["heap_mb"] = heap
		res.e2e["link_f1"] = linkF1(st.matches, s.d)
		res.named["link_f1_annotated"] = annotatedF1(st.matches, s.d)
		res.named["read_p50_ms"] = median(lat)
		res.named["setup.warmup_s"] = steps["setup.warmup_s"]
		namedTail(res, "op", lat, 0.99)
		namedTail(res, "read", lat, 0.99)
		res.named["read_capacity_rps"] = hotCapacity(st, rng, rate, inflight, lr, res)
		return nil
	}

	// Traced run: half the window untraced, half traced, so the
	// difference of the two medians is the tracing overhead.
	zeroLayers(res)
	setupLayers(res, steps)
	half := cfg.window() / 2
	plain := openLoop(rate, half, time.Second, inflight, hotOps(st, rng, nil))
	tr := newTracer()
	before := s.sys.Stats()
	traced := openLoop(rate, half, time.Second, inflight, hotOps(st, rng, tr))
	after := s.sys.Stats()
	tally(res, plain)
	tally(res, traced)
	traceRoots(tr, traced)
	loopLayers(res, traced)
	res.layer["server.non200"] = float64(plain.non200() + traced.non200())
	res.layer["trace.overhead_ratio"] = ratio(median(traced.latencies("read")), median(plain.latencies("read"))) - 1
	hits, calls := after.CacheHits-before.CacheHits, after.Calls-before.Calls
	res.layer["core.memo_hit_ratio"] = ratio(float64(hits), float64(hits+calls))

	// Server self time: a warm /vpair through ServeHTTP minus the
	// System.VPair call it wraps; the view's extra cost: a warm mirror
	// read minus the direct read of the same tuple.
	var serve, direct, extra []float64
	for i, url := range st.direct {
		t := s.catalog[i]
		a := medianCall(7, func() { get(st.srv, url) })
		b := medianCall(7, func() { _, _ = s.sys.VPair(t.rel, t.id) })
		serve, direct = append(serve, a), append(direct, b)
	}
	res.layer["server.self_us"] = (medianOf(serve) - medianOf(direct)) * 1e6
	for i, url := range st.mirror {
		base := st.mirrorBase[i]
		extra = append(extra, medianCall(7, func() { get(st.srv, url) })-medianCall(7, func() { get(st.srv, base) }))
	}
	res.layer["view.read_extra_us"] = medianOf(extra) * 1e6

	us, err := tupleVertices(s.sys, s.catalog)
	if err != nil {
		return err
	}
	blockingLayers(res, tr, s.sys, us, len(st.matches))
	return finishTrace(res, tr, replayStats{}, cfg.traceOut)
}

// hotCapacity runs the capacity ladder: short open-loop steps at rising
// rates, stopping at the first that misses the p99 limit or falls
// behind. It returns the highest rate that met both, counting the fixed
// rate's own phase. Wrong answers on the ladder still fail the run;
// overload failures there are expected and not counted.
func hotCapacity(st *hotState, rng *rand.Rand, rate float64, inflight int, fixed loopResult, res *result) float64 {
	meets := func(lr loopResult) bool {
		_, p99 := tail(lr.latencies("read"), 0.99)
		return lr.failed() == 0 && lr.healthy() && p99 <= hotSLOMs
	}
	step := hotStep
	if step > fixed.window/4 {
		step = fixed.window / 4
	}
	best := 0.0
	if meets(fixed) {
		best = rate
	}
	for _, r := range hotLadder {
		if r <= rate {
			continue
		}
		lr := openLoop(r, step, step/5, inflight, hotOps(st, rng, nil))
		mismatches(res, lr)
		if !meets(lr) {
			break
		}
		best = r
	}
	return best
}

// medianCall times fn n times and returns the median in seconds.
func medianCall(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = time.Since(t).Seconds()
	}
	return medianOf(xs)
}
