// Package shard is the sharded match-serving engine: it partitions the
// target graph G with an edge cut (Section VI-B's fragmentation, the
// same substrate the BSP engine parallelizes over), materializes one
// self-contained subgraph per shard with hop-bounded halo replication,
// and scatter-gathers VPair/APair requests across per-shard workers
// behind a generation-stamped result cache with admission control.
//
// Halo replication is what makes per-shard matching exact rather than
// approximate: each fragment's subgraph is closed under the
// neighborhoods parametric simulation inspects, out to the radius
// core.HaloRadius derives from the ranker path cap and the depth of
// G_D (full forward reachability when G_D is cyclic). A shard worker
// therefore runs a plain sequential core.Matcher — no cross-shard
// messages, no optimistic border assumptions — and its verdict for any
// owned candidate is provably identical to the whole-graph verdict.
// Only candidate generation is restricted: each shard considers
// exclusively the vertices it owns, so the union of per-shard match
// sets equals the whole-graph match set with no duplicates.
//
// The serving layer on top (router.go) bounds per-shard work queues,
// deduplicates concurrent identical requests singleflight-style,
// merges shard results through core.SortPairs, and sheds load with
// ErrOverloaded when queues are full instead of piling up goroutines.
package shard

import (
	"fmt"
	"sort"
	"strconv"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/lstm"
	"her/internal/obs"
	"her/internal/ranking"
)

// Config assembles a sharded engine from the components a trained
// system exposes. GD, RankerD, LM and the score functions inside Params
// are shared across all shard workers and must be safe for concurrent
// reads (rankers are lock-protected, scorers are memoized behind
// RWMutexes, a retrained language model is swapped in whole).
//
// The graphs deserve emphasis: the engine reads GD at request time
// (matcher recursion, ranker paths, blocking docs) and G at build time,
// all without any caller-visible lock. An owner that mutates its live
// graphs while serving — her.System's AddTuple/AddGraphVertex/
// AddGraphEdge do, under the system lock — must install a Snapshot hook
// that hands the engine private clones taken under that lock
// (graph.Clone); the mutation's generation bump then retires the
// snapshot at the next request. Passing live graphs without a Snapshot
// hook is only correct when they are never mutated while the engine
// serves (the testkit differential harness).
type Config struct {
	// GD is the canonical graph G_D (left side); it is shared, not
	// sharded — requests address its vertices.
	GD *graph.Graph
	// G is the target graph to partition.
	G *graph.Graph
	// RankerD is the G_D-side ranking function h_r, shared by all
	// workers (its ecache is concurrency-safe).
	RankerD *ranking.Ranker
	// LM is the path language model guiding G-side path growth (may be
	// nil: the deterministic PRA-greedy rule).
	LM *lstm.Model
	// Params are the parametric-simulation parameters (M_v, M_ρ, σ, δ, k).
	Params core.Params
	// MaxPathLen caps ranker paths (0 means the ranker default of 4).
	// It must match RankerD's cap, since the halo radius derives from it.
	MaxPathLen int
	// Shards is the number of fragments (>= 1).
	Shards int
	// MinSharedTokens > 0 enables the blocking inverted index per shard
	// (the System's candidate generation); 0 scans every owned vertex
	// (the testkit differential mode, mirroring a nil CandidateGen).
	MinSharedTokens int
	// QueueDepth bounds each shard's request queue (default 64); a full
	// queue sheds the request with ErrOverloaded.
	QueueDepth int
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables the cache).
	CacheSize int
	// Generation reports the current mutation generation; results are
	// cached stamped with it, and a bump triggers maintenance at the
	// next request: delta application when Deltas covers the gap, a full
	// rebuild otherwise. Nil means the constant generation 0.
	Generation func() uint64
	// Deltas, when set alongside Generation, returns the typed deltas
	// recorded in (after, upto] so the engine can maintain its state in
	// place instead of rebuilding (DeltaLog.Since). ok=false — the log
	// was truncated or diverged — falls back to a full rebuild, as does
	// any DeltaReset in the range. Nil always rebuilds.
	Deltas func(after, upto uint64) ([]Delta, bool)
	// SnapGen is stamped by the Snapshot hook: the generation the cloned
	// graphs were taken at, read under the same owner lock that excludes
	// mutations. It anchors delta replay — a state built from a SnapGen
	// snapshot plus the deltas (SnapGen, g] is exactly the owner's state
	// at g. Ignored when Snapshot is nil.
	SnapGen uint64
	// Snapshot, when set, refreshes the component fields (graphs,
	// RankerD, LM, Params, MaxPathLen, MinSharedTokens) from their owner
	// before each build: a System retrains rankers and language models
	// across generations, so a rebuild must not reuse stale captures.
	// The returned graphs must be private to the engine (clones taken
	// under the owner's lock) whenever the owner mutates its live graphs
	// while serving; see the Config comment.
	Snapshot func(Config) Config
	// Overrides reconciles a merged match set with user-verified
	// verdicts (a her view's overrides); nil means identity. scope
	// is the G_D vertex for VPair requests, graph.NoVertex for APair.
	Overrides func(matches []core.Pair, scope graph.VID) []core.Pair
	// Metrics receives the engine's instrumentation (nil disables it).
	Metrics *obs.Registry
}

func (c Config) normalized() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	return c
}

func (c Config) validate() error {
	if c.GD == nil || c.G == nil {
		return fmt.Errorf("shard: GD and G must be non-nil")
	}
	if c.RankerD == nil {
		return fmt.Errorf("shard: RankerD must be non-nil")
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: shard count must be >= 1, got %d", c.Shards)
	}
	return c.Params.Validate()
}

// shardState is one generation of the engine: the partition, the
// materialized per-shard subgraphs and their workers. A mutation
// (generation bump) advances it at the next request — in place when the
// owner's delta log covers the gap (delta.go), by retiring the whole
// state and building a fresh one otherwise. All mutation happens under
// the engine write lock with quiesced workers; requests share it read-
// only.
type shardState struct {
	cfg    Config // snapshotted components this state serves from
	gen    uint64
	gd     *graph.Graph // private G_D mirror (grown in place by deltas)
	g      *graph.Graph // private G mirror (delta replay + fragment rebuilds)
	radius int          // halo radius used (-1 = full forward closure)
	docD   func(graph.VID) string
	shards []*shardWorker
}

// shardWorker owns one fragment: its halo-closed subgraph (local vertex
// ids, ascending in global id so every id-based tie-break agrees with
// the whole-graph matcher), a sequential matcher over (G_D, subgraph),
// and a bounded request queue drained by a single goroutine.
type shardWorker struct {
	id          int
	g           *graph.Graph // fragment + halo, local ids
	toGlobal    []graph.VID  // local id → global id (strictly increasing)
	toLocal     []graph.VID  // global id → local id (NoVertex = not here)
	depthOf     []int32      // local id → BFS depth from the owned set
	owned       []graph.VID  // local ids of owned vertices (candidates)
	ownedGlobal []graph.VID  // global ids of owned vertices (the fragment)
	isOwned     []bool       // local id → owned here
	haloLen     int          // replicated (non-owned) vertex count
	blocking    bool
	minShared   int
	ix          *index.Inverted // per-shard blocking index (nil: blocking off)
	rankerG     *ranking.Ranker // this fragment's G-side ranker
	matcher     *core.Matcher
	gen         core.CandidateGen // candidate generator over owned vertices
	queue       chan *task
	depth       *obs.Gauge
	// waitSeconds/computeSeconds attribute each task's enqueue→dequeue
	// and dequeue→done intervals per shard; nil (no registry) skips the
	// worker's clock reads unless the request itself is traced.
	waitSeconds    *obs.Histogram // her_shard_queue_wait_seconds{shard}
	computeSeconds *obs.Histogram // her_shard_compute_seconds{shard}
}

// buildState partitions G, materializes every fragment's halo-closed
// subgraph and starts one worker per shard.
func buildState(cfg Config, gen uint64) (*shardState, error) {
	if cfg.Snapshot != nil {
		cfg = cfg.Snapshot(cfg).normalized()
		if err := cfg.validate(); err != nil {
			return nil, err
		}
		// The snapshot's graphs belong to its own generation, read under
		// the owner's lock; stamping anything else would make later delta
		// replay double-apply (or skip) the mutations that raced the clone.
		gen = cfg.SnapGen
	}
	part, err := graph.PartitionEdgeCut(cfg.G, cfg.Shards)
	if err != nil {
		return nil, err
	}
	radius := core.HaloRadius(cfg.GD, cfg.MaxPathLen)
	docD := index.NeighborhoodDoc(cfg.GD)
	st := &shardState{cfg: cfg, gen: gen, gd: cfg.GD, g: cfg.G, radius: radius, docD: docD}
	for i := range part.Fragments {
		w, err := buildWorker(cfg, &part.Fragments[i], radius, docD)
		if err != nil {
			stopWorkers(st.shards)
			return nil, err
		}
		st.shards = append(st.shards, w)
	}
	for _, w := range st.shards {
		wireWorker(cfg, w)
	}
	return st, nil
}

// wireWorker registers the worker's instrumentation (idempotent: the
// registry memoizes by name, so a rebuilt fragment reuses its series)
// and starts its drain goroutine.
func wireWorker(cfg Config, w *shardWorker) {
	w.depth = cfg.Metrics.Gauge(`her_shard_queue_depth{shard="` + strconv.Itoa(w.id) + `"}`)
	w.waitSeconds = cfg.Metrics.Histogram(
		`her_shard_queue_wait_seconds{shard="`+strconv.Itoa(w.id)+`"}`, obs.TimeBuckets)
	w.computeSeconds = cfg.Metrics.Histogram(
		`her_shard_compute_seconds{shard="`+strconv.Itoa(w.id)+`"}`, obs.TimeBuckets)
	cfg.Metrics.Gauge(`her_shard_owned_vertices{shard="` + strconv.Itoa(w.id) + `"}`).
		Set(float64(len(w.owned)))
	cfg.Metrics.Gauge(`her_shard_halo_vertices{shard="` + strconv.Itoa(w.id) + `"}`).
		Set(float64(w.haloLen))
	go w.run()
}

// expandEdges reports whether the out-edges of a vertex discovered at
// BFS depth d must be materialized: everything strictly inside the halo
// radius (or everything, when the radius is unbounded), plus the owned
// vertices themselves when blocking is on — the neighborhood-doc index
// reads their 1-hop out-neighbor labels even when matching itself never
// would (a depth-0 G_D needs no recursion but still needs blocking docs).
func expandEdges(d, radius int, blocking bool) bool {
	return radius < 0 || d < radius || (blocking && d == 0)
}

// buildWorker materializes one fragment: BFS forward from the owned set
// out to the halo radius, assign local ids in ascending global order
// (so ranker and matcher tie-breaks agree with the whole-graph run),
// copy the eligible out-edges in their original order, and assemble the
// worker's matcher and candidate generator.
func buildWorker(cfg Config, frag *graph.Fragment, radius int, docD func(graph.VID) string) (*shardWorker, error) {
	blocking := cfg.MinSharedTokens > 0
	n := cfg.G.NumVertices()
	depthOf := make([]int32, n)
	for i := range depthOf {
		depthOf[i] = -1
	}
	members := make([]graph.VID, 0, len(frag.Owned))
	for _, gv := range frag.Owned {
		depthOf[gv] = 0
		members = append(members, gv)
	}
	frontier := frag.Owned
	for d := 0; len(frontier) > 0 && expandEdges(d, radius, blocking); d++ {
		next := make([]graph.VID, 0, len(frontier))
		for _, gv := range frontier {
			for _, e := range cfg.G.Out(gv) {
				if depthOf[e.To] < 0 {
					depthOf[e.To] = int32(d + 1)
					members = append(members, e.To)
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })

	sg := graph.New(len(members))
	toLocal := make([]graph.VID, n)
	for i := range toLocal {
		toLocal[i] = graph.NoVertex
	}
	toGlobal := make([]graph.VID, 0, len(members))
	ldepth := make([]int32, 0, len(members))
	for _, gv := range members {
		toLocal[gv] = sg.AddVertex(cfg.G.Label(gv))
		toGlobal = append(toGlobal, gv)
		ldepth = append(ldepth, depthOf[gv])
	}
	for _, gv := range members {
		if !expandEdges(int(depthOf[gv]), radius, blocking) {
			continue
		}
		for _, e := range cfg.G.Out(gv) {
			sg.MustAddEdge(toLocal[gv], toLocal[e.To], e.Label)
		}
	}

	owned := make([]graph.VID, 0, len(frag.Owned))
	ownedGlobal := make([]graph.VID, 0, len(frag.Owned))
	isOwned := make([]bool, len(members))
	for _, gv := range frag.Owned {
		owned = append(owned, toLocal[gv])
		isOwned[toLocal[gv]] = true
	}
	sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
	for _, lv := range owned {
		ownedGlobal = append(ownedGlobal, toGlobal[lv])
	}

	rankerG := ranking.NewRanker(sg, cfg.LM, cfg.MaxPathLen)
	m, err := core.NewMatcher(cfg.GD, sg, cfg.RankerD, rankerG, cfg.Params)
	if err != nil {
		return nil, err
	}
	w := &shardWorker{
		id:          frag.ID,
		g:           sg,
		toGlobal:    toGlobal,
		toLocal:     toLocal,
		depthOf:     ldepth,
		owned:       owned,
		ownedGlobal: ownedGlobal,
		isOwned:     isOwned,
		haloLen:     len(members) - len(frag.Owned),
		blocking:    blocking,
		minShared:   cfg.MinSharedTokens,
		rankerG:     rankerG,
		matcher:     m,
		queue:       make(chan *task, cfg.QueueDepth),
	}
	// The candidate generators read the worker's fields, not captured
	// copies, so an in-place delta (grown owned set, rebuilt blocking
	// index) is picked up without rebuilding the closure.
	if blocking {
		// The per-shard blocking index mirrors System.buildCandidateGen
		// restricted to owned vertices: halo closure guarantees each
		// owned vertex's neighborhood doc (own label + out-neighbor
		// labels) is byte-identical to the whole-graph doc, so the
		// per-shard lookup returns exactly the global candidates that
		// live here.
		w.rebuildIndex()
		w.gen = func(u graph.VID) []graph.VID { return w.ix.Lookup(docD(u), w.minShared) }
	} else {
		w.gen = func(graph.VID) []graph.VID { return w.owned }
	}
	return w, nil
}

// stopWorkers closes every worker's queue; the drain loop exits after
// finishing (or skipping) whatever is still enqueued. Callers must
// guarantee no further enqueues (the engine does, by swapping states
// under the write lock).
func stopWorkers(workers []*shardWorker) {
	for _, w := range workers {
		close(w.queue)
	}
}

// FragmentInfo describes one shard of a built state for observability
// and tests.
type FragmentInfo struct {
	Shard int `json:"shard"`
	Owned int `json:"owned"`
	Halo  int `json:"halo"`
}

// Info is an engine snapshot: the shard layout of the current state
// plus lifetime maintenance counters (how many generations advanced via
// deltas versus full rebuilds, and how the vertex-scoped cache sweeps
// treated existing entries).
type Info struct {
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
	HaloRadius int    `json:"haloRadius"` // -1 = full forward closure
	CacheLen   int    `json:"cacheEntries"`
	// DeltasApplied counts mutations maintained in place; FullRebuilds
	// counts state retirements (initial build excluded); FragmentRebuilds
	// counts single-fragment rebuilds on the delta path.
	DeltasApplied    uint64 `json:"deltasApplied"`
	FullRebuilds     uint64 `json:"fullRebuilds"`
	FragmentRebuilds uint64 `json:"fragmentRebuilds"`
	// CacheSurvived/CacheEvicted count how delta sweeps treated live
	// result-cache entries: survived entries were re-stamped to the new
	// generation without recomputation.
	CacheSurvived uint64         `json:"cacheSurvived"`
	CacheEvicted  uint64         `json:"cacheEvicted"`
	Fragments     []FragmentInfo `json:"fragments"`
}
