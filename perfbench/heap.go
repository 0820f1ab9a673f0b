package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// heapSampler reads the live heap at a fixed interval through the timed
// phase. heap_mb is the median reading: one reading at the end would
// depend on where the phase happened to stop (a memo just rebuilt or
// just filled). The readings do not force a collection, so the timed
// operations never pay for one the program would not have run.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // written by the sampling goroutine until done closes
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.samples = append(h.samples, liveHeapMB())
			}
		}
	}()
	return h
}

// finish stops the sampler, takes a last reading after a full
// collection, now that the timed phase is over, and returns the median
// in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return medianOf(append(h.samples, heapMB()))
}

// liveHeapMB is the heap the last collection marked live, in MiB. It
// does not collect.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapMB is the live heap after a full collection, in MiB. Call it only
// outside a timed phase.
func heapMB() float64 {
	runtime.GC()
	return liveHeapMB()
}
