package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer: a name, its interval, the span
// that caused it (0 for a root) and the operation it belongs to.
type span struct {
	ID     int64
	Parent int64
	Op     int64
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent's id can be handed to children
// recorded before the parent ends. A nil tracer returns 0.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by id.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// spanIndex groups spans by name and by parent for the metric
// computations.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// self is the self time of s: its duration minus the union of its
// children's intervals.
func (ix spanIndex) self(s span) time.Duration {
	kids := ix.children[s.ID]
	ivs := make([]interval, len(kids))
	for i, k := range kids {
		ivs[i] = interval{k.Start, k.End}
	}
	return selfTime(interval{s.Start, s.End}, ivs)
}

// meanMicros is the mean duration of the named spans in microseconds.
func (ix spanIndex) meanMicros(name string) float64 {
	ss := ix.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range ss {
		total += s.dur()
	}
	return float64(total) / float64(len(ss)) / float64(time.Microsecond)
}

// tiles checks that the children of every named span are disjoint and
// lie inside it, so children plus self time add up to the span.
func (ix spanIndex) tiles(name string) error {
	for _, s := range ix.byName[name] {
		kids := append([]span(nil), ix.children[s.ID]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for i, k := range kids {
			if k.Start.Before(s.Start) || k.End.After(s.End) {
				return fmt.Errorf("span %d (%s) sticks out of its parent %s", k.ID, k.Name, name)
			}
			if i > 0 && k.Start.Before(kids[i-1].End) {
				return fmt.Errorf("spans %d and %d under %s overlap", kids[i-1].ID, k.ID, name)
			}
		}
	}
	return nil
}

// spanJSON is the written form of a span: times in nanoseconds since
// the tracer started.
type spanJSON struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(spanJSON{ID: s.ID, Parent: s.Parent, Op: s.Op, Name: s.Name,
			Start: int64(s.Start.Sub(t.t0)), End: int64(s.End.Sub(t.t0))}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
