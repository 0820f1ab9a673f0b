package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"her"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		maxQ    float64
		q, want float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly ten samples beyond p99
		{999, 0.99, 0.95, 950},  // nine beyond p99, so fall back to p95
		{200, 0.99, 0.95, 190},  // ten beyond p95
		{100, 0.99, 0.90, 90},
		{45, 0.95, 0.75, 34},
		{1000, 0.95, 0.95, 950}, // capped at maxQ
		{5, 0.99, 1, 5},         // too few for any percentile: the maximum
	}
	for _, c := range cases {
		q, v := tail(seq(c.n), c.maxQ)
		if q != c.q || v != c.want {
			t.Errorf("tail(n=%d, max %.2f) = p%.0f %v, want p%.0f %v", c.n, c.maxQ, q*100, v, c.q*100, c.want)
		}
	}
	if q, v := tail(nil, 0.99); q != 0 || v != 0 {
		t.Errorf("tail(empty) = %v %v, want 0 0", q, v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", m)
	}
	if m := medianOf([]float64{9, 1, 5}); m != 5 {
		t.Errorf("medianOf = %v, want 5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * time.Millisecond},
		{"disjoint", []interval{{at(10), at(20)}, {at(50), at(70)}}, 70 * time.Millisecond},
		// 10–40 and 30–60 overlap: their union covers 50 ms, not 60.
		{"overlapping", []interval{{at(30), at(60)}, {at(10), at(40)}}, 50 * time.Millisecond},
		{"nested", []interval{{at(10), at(90)}, {at(20), at(30)}}, 20 * time.Millisecond},
		// Only the part inside the parent counts.
		{"sticking out", []interval{{at(-20), at(10)}, {at(95), at(130)}}, 85 * time.Millisecond},
		{"touching", []interval{{at(0), at(50)}, {at(50), at(100)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpanTiling(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	p := tr.id()
	tr.add(p, 0, p, "core.vpair", at(0), at(100))
	tr.add(0, p, p, "index.candgen", at(0), at(10))
	tr.add(0, p, p, "embed.mv", at(20), at(25))
	ix := indexSpans(tr.snapshot())
	if err := ix.tiles("core.vpair"); err != nil {
		t.Fatalf("disjoint children: %v", err)
	}
	if got := ix.self(ix.byName["core.vpair"][0]); got != 85*time.Microsecond {
		t.Errorf("self time %v, want 85µs", got)
	}
	tr.add(0, p, p, "nn.mrho", at(22), at(30))
	if err := indexSpans(tr.snapshot()).tiles("core.vpair"); err == nil {
		t.Error("overlapping children were accepted as a tiling")
	}
}

func TestCPUSteal(t *testing.T) {
	steal, total, ok := cpuSteal()
	if !ok {
		t.Skip("no /proc/stat")
	}
	if total == 0 || steal > total {
		t.Errorf("steal %d of %d clock ticks", steal, total)
	}
}

func TestNewEdgeRunsOutCleanly(t *testing.T) {
	st := &ingestState{freeFrom: []her.VertexID{1, 2}, freeTo: []her.VertexID{1, 2}, labels: []string{"x"}}
	rng := rand.New(rand.NewSource(1))
	seen := map[[2]her.VertexID]bool{}
	for i := 0; i < 2; i++ {
		from, to, label, err := st.newEdge(rng)
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		if from == to || label != "x" || seen[[2]her.VertexID{from, to}] {
			t.Errorf("edge %d: %d -%s-> %d", i, from, label, to)
		}
		seen[[2]her.VertexID{from, to}] = true
	}
	if _, _, _, err := st.newEdge(rng); !errors.Is(err, errNoVertex) {
		t.Errorf("exhausted pools: err %v, want errNoVertex", err)
	}
	// The only target left is the source itself.
	st = &ingestState{freeFrom: []her.VertexID{3}, freeTo: []her.VertexID{3}, labels: []string{"x"}}
	if _, _, _, err := st.newEdge(rng); !errors.Is(err, errNoVertex) {
		t.Errorf("self-loop only: err %v, want errNoVertex", err)
	}
}

// smoke runs a workload on a tiny dataset and returns its result line.
func smoke(t *testing.T, workload string, trace bool) map[string]interface{} {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 0.2, trace: trace, setups: 1, entities: 12, quick: true,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
	switch workload {
	case "serve-hot":
		cfg.rate = 100
	case "ingest-link":
		cfg.rate = 40
	}
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 {
		t.Fatalf("wrong answers: %v", res.problems)
	}
	var out bytes.Buffer
	if err := report(cfg, res, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]interface{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["correct"] != true || last["attempted"].(float64) < 1 || last["failed"].(float64) != 0 {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
			t.Errorf("no spans written: %v", err)
		}
	}
	metrics := last["metrics"].(map[string]interface{})
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.name].(map[string]interface{})
		if !ok || m["unit"] != d.unit {
			t.Errorf("metric %s missing or with the wrong unit: %v", d.name, metrics[d.name])
		}
	}
	return metrics
}

func TestSmoke(t *testing.T) {
	for _, w := range []string{"serve-hot", "ingest-link", "apair-batch"} {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				metrics := smoke(t, w, trace)
				if !trace {
					for _, d := range endToEnd {
						if v := metrics[d.name].(map[string]interface{})["value"].(float64); v <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, v)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names the metrics and
// workloads this program reports.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "all", "--seconds", "0"},
		{"--workload", "ingest-link", "--rate", "-1"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if st := run(args, &out, &errs); st != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no output", args, st, out.String())
		}
	}
	if len(workloadOrder) != len(workloads) {
		t.Fatalf("--workload all runs %d workloads, the program has %d", len(workloadOrder), len(workloads))
	}
	for _, w := range workloadOrder {
		if workloads[w] == nil {
			t.Errorf("--workload all names unknown workload %q", w)
		}
	}
}
