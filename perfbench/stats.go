package main

import (
	"math"
	"sort"
	"time"
)

// sortedMillis converts durations to milliseconds, sorted ascending.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the median of sorted xs (the mean of the middle two
// for an even count), or 0 for an empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// tailPercentiles are the percentiles the tail rule may report, highest
// first.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tail applies the tail rule to sorted samples: it reports the highest
// percentile, no higher than maxQ, that has at least ten samples beyond
// its nearest-rank position. With too few samples for any of them it
// reports the maximum, with q = 1. It returns q and the value; an empty
// slice gives (0, 0).
func tail(sorted []float64, maxQ float64) (q, v float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailPercentiles {
		if p > maxQ {
			continue
		}
		pos := int(math.Ceil(p * float64(n)))
		if n-pos >= 10 {
			return p, sorted[pos-1]
		}
	}
	return 1, sorted[n-1]
}

// interval is a closed time range.
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it that its
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return total - covered
}

// meanOf returns the arithmetic mean of xs, or 0 for an empty slice.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
