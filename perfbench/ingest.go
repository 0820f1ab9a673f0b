package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"her"
	"her/internal/server"
)

// ingest-link: incremental linking through a sharded server. Reads of
// the catalog (including tuples linked earlier in the run) run beside
// links — AddTuple of a copy of an existing tuple, then /vpair of the
// new tuple, a cold ParaMatch — and AddGraphEdge writes, which go
// through delta replay, fragment rebuilds and the index rebuild under
// System.mu.
const (
	ingestEntities = 150
	ingestRate     = 25.0 // offered operations per second: about half the measured capacity
	linkCheckEvery = 4    // every Nth link is checked against System.VPair
	replayLinks    = 24   // links replayed through the traced matcher
	postWriteReads = 5    // edge-then-read probes of the traced run
)

// ingestState is the sharded serving state and the write inputs.
type ingestState struct {
	srv      *server.Server
	rel      string     // the main relation links copy from
	keyIdx   int        // position of its key attribute
	base     [][]string // values of its tuples at build time
	labels   []string
	matches  map[her.Pair]bool // warm-up answers
	catalog  []string          // /vpair URL per catalog tuple
	freeFrom []her.VertexID    // shuffled non-leaf vertices not yet an edge source
	freeTo   []her.VertexID    // shuffled non-leaf vertices not yet an edge target
	links    int               // links issued so far, across phases; generator goroutine only

	mu       sync.Mutex
	readable []string   // guarded by mu — catalog URLs plus linked tuples
	checks   []tupleRef // guarded by mu — links to check after the window
	linked   []linkRec  // guarded by mu — every link, for the replay
}

// linkRec is one completed link: its issue order and new tuple.
type linkRec struct {
	seq int
	t   tupleRef
}

// warmIngest builds the sharded server and reads every catalog tuple
// through it once, so reads start warm and links are the cold work. It
// deals the non-leaf G vertices into the edge writes' source and target
// pools in a seeded order.
func warmIngest(s *system, seed int64) (*ingestState, error) {
	srv, err := server.NewSharded(s.sys, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	st := &ingestState{srv: srv, rel: s.d.Config.MainRelation, matches: map[her.Pair]bool{}}
	rel := s.d.DB.Relation(st.rel)
	for i, a := range rel.Schema.Attrs {
		if a == rel.Schema.Key {
			st.keyIdx = i
		}
	}
	for _, tp := range rel.Tuples {
		st.base = append(st.base, append([]string(nil), tp.Values...))
	}
	g := s.sys.G
	seen := map[string]bool{}
	var nonLeaf []her.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		vid := her.VertexID(v)
		if g.IsLeaf(vid) {
			continue
		}
		nonLeaf = append(nonLeaf, vid)
		for _, e := range g.Out(vid) {
			if !seen[e.Label] {
				seen[e.Label] = true
				st.labels = append(st.labels, e.Label)
			}
		}
	}
	sort.Strings(st.labels)
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(nonLeaf)) {
		st.freeFrom = append(st.freeFrom, nonLeaf[i])
	}
	for _, i := range rng.Perm(len(nonLeaf)) {
		st.freeTo = append(st.freeTo, nonLeaf[i])
	}
	for _, t := range s.catalog {
		url := fmt.Sprintf("/vpair?rel=%s&tuple=%d", t.rel, t.id)
		code, body := get(srv, url)
		if code != 200 {
			srv.Close()
			return nil, fmt.Errorf("%s: status %d", url, code)
		}
		vs, err := matchVertices(body)
		if err != nil {
			srv.Close()
			return nil, err
		}
		u, err := s.sys.TupleVertex(t.rel, t.id)
		if err != nil {
			srv.Close()
			return nil, err
		}
		for _, v := range vs {
			st.matches[her.Pair{U: u, V: her.VertexID(v)}] = true
		}
		st.catalog = append(st.catalog, url)
	}
	st.readable = append([]string(nil), st.catalog...)
	return st, nil
}

// newEdge draws an edge between non-leaf G vertices with a label G
// already uses. Sources and targets are not reused, so no vertex's
// adjacency depends on the order concurrent writes land in; once either
// pool runs out it returns errNoVertex.
func (st *ingestState) newEdge(rng *rand.Rand) (from, to her.VertexID, label string, err error) {
	if len(st.freeFrom) == 0 {
		return 0, 0, "", errNoVertex
	}
	from = st.freeFrom[len(st.freeFrom)-1]
	// The target pool is shuffled, so its last vertex other than from
	// is as good a draw as any.
	for i := len(st.freeTo) - 1; i >= 0; i-- {
		if st.freeTo[i] != from {
			to = st.freeTo[i]
			st.freeTo = append(st.freeTo[:i], st.freeTo[i+1:]...)
			st.freeFrom = st.freeFrom[:len(st.freeFrom)-1]
			return from, to, st.labels[rng.Intn(len(st.labels))], nil
		}
	}
	return 0, 0, "", errNoVertex
}

// errNoVertex marks an edge write for which no unused non-leaf vertex
// was left.
var errNoVertex = errors.New("no unused non-leaf G vertex left for an edge write")

// ingestDeck is the ingest-link mix per 20 operations: 14 reads, 5
// links and 1 edge write, shuffled. Fixed counts keep the number of
// links, and so the tail percentile they support, the same every run.
var ingestDeck = func() []string {
	deck := make([]string, 0, 20)
	for kind, n := range map[string]int{"read": 14, "link": 5, "edge": 1} {
		for i := 0; i < n; i++ {
			deck = append(deck, kind)
		}
	}
	sort.Strings(deck)
	return deck
}()

// ingestOps draws the ingest-link mix from shuffled decks: reads over
// the readable tuples, links and edge writes.
func ingestOps(st *ingestState, sys *her.System, rng *rand.Rand, tr *tracer) func(int) op {
	var deck []string
	order := rng.Perm(len(st.base)) // links copy the base tuples in a seeded order
	return func(int) op {
		if len(deck) == 0 {
			deck = append(deck, ingestDeck...)
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		kind := deck[0]
		deck = deck[1:]
		root := tr.id()
		switch kind {
		case "read":
			st.mu.Lock()
			url := st.readable[rng.Intn(len(st.readable))]
			st.mu.Unlock()
			return op{kind: kind, root: root, run: func(start time.Time) error {
				code, _ := get(st.srv, url)
				tr.add(0, root, root, "server.serve", start, time.Now())
				if code != 200 {
					return fmt.Errorf("%s: %w %d", url, errStatus, code)
				}
				return nil
			}}
		case "link":
			seq := st.links
			st.links++
			check := seq%linkCheckEvery == 0
			vals := append([]string(nil), st.base[order[seq%len(order)]]...)
			vals[st.keyIdx] += fmt.Sprintf(" link%d", seq)
			return op{kind: kind, root: root, run: func(start time.Time) error {
				id, err := sys.AddTuple(st.rel, vals...)
				t := time.Now()
				tr.add(0, root, root, "her.add_tuple", start, t)
				if err != nil {
					return fmt.Errorf("AddTuple: %w", err)
				}
				url := fmt.Sprintf("/vpair?rel=%s&tuple=%d", st.rel, id)
				code, _ := get(st.srv, url)
				tr.add(0, root, root, "server.serve", t, time.Now())
				if code != 200 {
					return fmt.Errorf("%s: %w %d", url, errStatus, code)
				}
				st.mu.Lock()
				st.readable = append(st.readable, url)
				st.linked = append(st.linked, linkRec{seq: seq, t: tupleRef{st.rel, id}})
				if check {
					st.checks = append(st.checks, tupleRef{st.rel, id})
				}
				st.mu.Unlock()
				return nil
			}}
		default:
			from, to, label, err := st.newEdge(rng)
			return op{kind: kind, root: root, run: func(start time.Time) error {
				if err != nil {
					return err
				}
				err := sys.AddGraphEdge(from, to, label)
				tr.add(0, root, root, "her.add_graph_edge", start, time.Now())
				return err
			}}
		}
	}
}

// checkLinks compares the sharded answer for every checked link with
// sequential System.VPair, after all writes have landed.
func checkLinks(st *ingestState, sys *her.System, res *result) {
	st.mu.Lock()
	checks := append([]tupleRef(nil), st.checks...)
	st.mu.Unlock()
	for _, t := range checks {
		url := fmt.Sprintf("/vpair?rel=%s&tuple=%d", t.rel, t.id)
		code, body := get(st.srv, url)
		got, err := matchVertices(body)
		if code != 200 || err != nil {
			res.mismatch("%s: status %d after the window", url, code)
			continue
		}
		want, err := sys.VPair(t.rel, t.id)
		if err != nil {
			res.mismatch("%s: System.VPair: %v", url, err)
			continue
		}
		if !sameVertices(got, want) {
			res.mismatch("%s: sharded %v, System.VPair %v", url, got, want)
		}
	}
}

func runIngestLink(cfg config, res *result) error {
	entities := cfg.entities
	if entities == 0 {
		entities = ingestEntities
	}
	rate := cfg.rate
	if rate == 0 {
		rate = ingestRate
	}
	var st *ingestState
	s, steps, err := setupRuns(cfg, entities, func(s *system) error {
		var err error
		st, err = warmIngest(s, cfg.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer st.srv.Close()
	sizes(res, s)
	res.env["offered_rate"] = rate
	res.env["shards"] = runtime.NumCPU()
	inflight := runtime.NumCPU()
	rng := rand.New(rand.NewSource(cfg.seed))

	if !cfg.trace {
		hs := startHeapSampler(cfg.window() / 10)
		lr := openLoop(rate, cfg.window(), time.Second, inflight, ingestOps(st, s.sys, rng, nil))
		heap := hs.finish()
		tally(res, lr)
		genHealth(res, lr)
		checkLinks(st, s.sys, res)
		links := lr.latencies("link")
		reads := lr.latencies("read")
		res.e2e["setup_s"] = steps["setup_s"]
		res.named["op_p50_ms"] = median(links)
		res.e2e["heap_mb"] = heap
		res.e2e["link_f1"] = linkF1(st.matches, s.d)
		res.named["link_f1_annotated"] = annotatedF1(st.matches, s.d)
		res.named["link_p50_ms"] = median(links)
		res.named["setup.warmup_s"] = steps["setup.warmup_s"]
		res.named["read_p50_ms"] = median(reads)
		res.named["edge_write_p50_ms"] = median(lr.latencies("edge"))
		namedTail(res, "op", links, 0.95)
		namedTail(res, "link", links, 0.95)
		namedTail(res, "read", reads, 0.99)
		return nil
	}

	zeroLayers(res)
	setupLayers(res, steps)
	half := cfg.window() / 2
	plain := openLoop(rate, half, time.Second, inflight, ingestOps(st, s.sys, rng, nil))
	tr := newTracer()
	eng := st.srv.Engine()
	h0, i0 := snapShard(s.reg, runtime.NumCPU()), eng.Snapshot()
	traced := openLoop(rate, half, time.Second, inflight, ingestOps(st, s.sys, rng, tr))
	h1, i1 := snapShard(s.reg, runtime.NumCPU()), eng.Snapshot()
	tally(res, plain)
	tally(res, traced)
	traceRoots(tr, traced)
	loopLayers(res, traced)
	shardLayers(res, h0, h1, i0, i1)
	res.layer["server.non200"] = float64(plain.non200() + traced.non200())
	res.layer["trace.overhead_ratio"] = ratio(median(traced.latencies("link")), median(plain.latencies("link"))) - 1

	// The first read after a graph write pays the fragment rebuilds.
	var post []float64
	for i := 0; i < postWriteReads; i++ {
		from, to, label, err := st.newEdge(rng)
		if err != nil {
			return err
		}
		if err := s.sys.AddGraphEdge(from, to, label); err != nil {
			return err
		}
		url := st.catalog[rng.Intn(len(st.catalog))]
		t := time.Now()
		if code, _ := get(st.srv, url); code != 200 {
			return fmt.Errorf("%s: status %d after a graph write", url, code)
		}
		post = append(post, float64(time.Since(t))/float64(time.Millisecond))
	}
	res.layer["shard.post_write_read_ms"] = meanOf(post)
	checkLinks(st, s.sys, res)

	// Server self time on cached reads: ServeHTTP minus the engine call.
	us, err := tupleVertices(s.sys, s.catalog)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var serve, direct []float64
	for i, url := range st.catalog {
		u := us[i]
		serve = append(serve, medianCall(7, func() { get(st.srv, url) }))
		direct = append(direct, medianCall(7, func() { _, _ = eng.VPair(ctx, u) }))
	}
	res.layer["server.self_us"] = (medianOf(serve) - medianOf(direct)) * 1e6

	ix := indexSpans(tr.snapshot())
	res.layer["her.add_tuple_us"] = ix.meanMicros("her.add_tuple")
	res.layer["her.add_graph_edge_ms"] = ix.meanMicros("her.add_graph_edge") / 1e3

	// Replay the first links, in issue order, through the traced
	// matcher: cold VParaMatch of each new tuple on the final graphs.
	st.mu.Lock()
	linked := append([]linkRec(nil), st.linked...)
	st.mu.Unlock()
	sort.Slice(linked, func(i, j int) bool { return linked[i].seq < linked[j].seq })
	if len(linked) > replayLinks {
		linked = linked[:replayLinks]
	}
	refs := make([]tupleRef, len(linked))
	for i, l := range linked {
		refs[i] = l.t
	}
	sources, err := tupleVertices(s.sys, refs)
	if err != nil {
		return err
	}
	rs, err := replay(tr, s.sys, sources)
	if err != nil {
		return err
	}
	blockingLayers(res, tr, s.sys, us, len(st.matches))
	return finishTrace(res, tr, rs, cfg.traceOut)
}
