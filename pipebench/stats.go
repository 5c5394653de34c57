package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metrics the benchmark reads (runtime/metrics names).
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
)

// counters is one reading of the process-wide counters a pipeline is
// charged with.
type counters struct {
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	gcCPU, totalCPU          float64
	cpu                      time.Duration // user+sys, getrusage
}

func readCounters() counters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return counters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
		cpu:          processCPU(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		allocBytes:   c.allocBytes - o.allocBytes,
		allocObjects: c.allocObjects - o.allocObjects,
		gcCycles:     c.gcCycles - o.gcCycles,
		gcCPU:        c.gcCPU - o.gcCPU,
		totalCPU:     c.totalCPU - o.totalCPU,
		cpu:          c.cpu - o.cpu,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		allocBytes:   c.allocBytes + o.allocBytes,
		allocObjects: c.allocObjects + o.allocObjects,
		gcCycles:     c.gcCycles + o.gcCycles,
		gcCPU:        c.gcCPU + o.gcCPU,
		totalCPU:     c.totalCPU + o.totalCPU,
		cpu:          c.cpu + o.cpu,
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytesNow reads the cumulative heap allocation, for span edges.
func allocBytesNow() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples live-and-unswept heap object bytes on a ticker until
// stopped. take returns the maximum seen since the previous take, so the
// loop can record one peak per pipeline.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take samples once more and returns the peak since the previous take.
func (h *heapPeak) take() uint64 {
	h.sample()
	return h.peak.Swap(0)
}

// finish stops the sampler.
func (h *heapPeak) finish() {
	close(h.stop)
	h.done.Wait()
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1e6
