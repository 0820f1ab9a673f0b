package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// op is one operation the open-loop generator issues. run performs it,
// given when a worker picked it up, and returns why it failed; root is
// the operation's span id in a traced run (0 otherwise).
type op struct {
	kind string
	root int64
	run  func(start time.Time) error
}

// outcome is what happened to one issued operation.
type outcome struct {
	kind string
	root int64
	due  time.Time // when the schedule said to send it
	sent time.Time // when a worker accepted it
	end  time.Time
	err  error
}

// loopResult is one open-loop phase.
type loopResult struct {
	rate     float64
	window   time.Duration
	outcomes []outcome
	deadline time.Time // operations ending later count as not completed
}

// openLoop issues operations at a fixed rate for the window, timing each
// from its due time, with at most inflight running at once: when every
// worker is busy the generator waits, and that wait shows as lag and as
// latency of the operations behind it. next is called in schedule order
// on the generator goroutine, so a seeded generator gives the same
// sequence every run. Operations not finished grace after the window,
// including any the generator had not sent by then, count as not
// completed; openLoop waits for the running ones all the same.
func openLoop(rate float64, window, grace time.Duration, inflight int, next func(i int) op) loopResult {
	n := int(math.Ceil(rate * window.Seconds()))
	res := loopResult{rate: rate, window: window, outcomes: make([]outcome, n)}
	type job struct {
		i  int
		op op
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				start := time.Now()
				res.outcomes[j.i].sent = start
				err := j.op.run(start)
				res.outcomes[j.i].end = time.Now()
				res.outcomes[j.i].err = err
			}
		}()
	}
	t0 := time.Now()
	res.deadline = t0.Add(window + grace)
	step := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * step))
		waitUntil(due)
		o := next(i)
		res.outcomes[i] = outcome{kind: o.kind, root: o.root, due: due}
		if time.Now().After(res.deadline) {
			res.outcomes[i].err = errNotSent
			continue
		}
		jobs <- job{i: i, op: o}
	}
	close(jobs)
	wg.Wait()
	return res
}

// spinWindow is how long before a due time the generator stops sleeping
// and yields in a loop instead: an idle Go process sleeps with about a
// millisecond of granularity, which would add up to that much lag to
// every operation.
const spinWindow = 1100 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields
// the processor until t, so runnable workers keep priority.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// completed reports whether the outcome finished without error before
// the deadline; anything else is a failed operation.
func (r loopResult) completed(o outcome) bool {
	return o.err == nil && !o.end.After(r.deadline)
}

// latencies returns the due-to-end latencies of the completed
// operations of a kind ("" for every kind), sorted, in milliseconds.
func (r loopResult) latencies(kind string) []float64 {
	var ds []time.Duration
	for _, o := range r.outcomes {
		if (kind == "" || o.kind == kind) && r.completed(o) {
			ds = append(ds, o.end.Sub(o.due))
		}
	}
	return sortedMillis(ds)
}

// failed counts the operations that errored or did not finish by the
// deadline.
func (r loopResult) failed() int {
	n := 0
	for _, o := range r.outcomes {
		if !r.completed(o) {
			n++
		}
	}
	return n
}

// lagP99 is how late the generator sent: the tail of sent minus due, in
// milliseconds, by the tail rule.
func (r loopResult) lagP99() float64 {
	var ds []time.Duration
	for _, o := range r.outcomes {
		if !o.sent.IsZero() {
			ds = append(ds, o.sent.Sub(o.due))
		}
	}
	_, v := tail(sortedMillis(ds), 0.99)
	return v
}

// queueWaitMean is the mean wait from due time to a worker starting the
// operation, in milliseconds.
func (r loopResult) queueWaitMean() float64 {
	var xs []float64
	for _, o := range r.outcomes {
		if !o.sent.IsZero() {
			xs = append(xs, float64(o.sent.Sub(o.due))/float64(time.Millisecond))
		}
	}
	return meanOf(xs)
}

// achieved is completed operations over offered ones (every outcome).
func (r loopResult) achieved() float64 {
	done := 0
	for _, o := range r.outcomes {
		if r.completed(o) {
			done++
		}
	}
	return ratio(float64(done), float64(len(r.outcomes)))
}

// healthy reports whether the generator kept its schedule: its lag
// stayed under a tenth of the window and nearly everything offered
// completed. A run that fails this is reported as invalid.
func (r loopResult) healthy() bool {
	return r.lagP99() < float64(r.window/time.Millisecond)/10 && r.achieved() >= 0.99
}

// errNotSent marks an operation the generator could not send before
// the deadline.
var errNotSent = errors.New("not sent before the deadline")

// tally adds a phase's operations to the result: each one attempted,
// each one that did not complete failed, and each wrong answer a
// problem that fails the run.
func tally(res *result, lr loopResult) {
	res.attempted += len(lr.outcomes)
	res.failed += lr.failed()
	mismatches(res, lr)
	if !lr.healthy() && res.invalid == "" {
		res.invalid = fmt.Sprintf("generator fell behind at %.0f/s: lag p99 %.1f ms, %.1f%% of offered completed",
			lr.rate, lr.lagP99(), 100*lr.achieved())
	}
}

// non200 counts the requests of a phase answered with a status other
// than 200.
func (r loopResult) non200() int {
	n := 0
	for _, o := range r.outcomes {
		if errors.Is(o.err, errStatus) {
			n++
		}
	}
	return n
}

// genHealth reports the generator's lag and completion share of an
// untraced run in the report line.
func genHealth(res *result, lr loopResult) {
	res.named["gen.lag_p99_ms"] = lr.lagP99()
	res.named["gen.achieved_ratio"] = lr.achieved()
}

// mismatches records the wrong answers of a phase.
func mismatches(res *result, lr loopResult) {
	for _, o := range lr.outcomes {
		if errors.Is(o.err, errMismatch) {
			res.mismatch("%v", o.err)
		}
	}
}

// traceRoots records each operation's root span, from its due time to
// its end; the wait before a worker picked it up is the root's self
// time.
func traceRoots(tr *tracer, lr loopResult) {
	for _, o := range lr.outcomes {
		if !o.sent.IsZero() {
			tr.add(o.root, 0, o.root, "op."+o.kind, o.due, o.end)
		}
	}
}
