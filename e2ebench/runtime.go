package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler tracks the peak live heap while it runs: the heap bytes
// the most recent GC cycle marked live, read from runtime/metrics
// (without stopping the world). Unlike the in-use heap, which swings
// with the GC cycle's phase, the live heap is what the program retains.
// Peaks are taken per segment (a repetition or a pass), so a caller can
// report their median rather than one GC cycle's timing.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64 // since the current segment began
}

const heapLive = "/gc/heap/live:bytes"

// startHeapSampler begins sampling every interval until Stop.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapLive}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// segment returns the peak in MB since the previous segment (or the
// start) and begins the next one.
func (h *heapSampler) segment() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = 0
	return float64(peak) / (1 << 20)
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// runtimeSnap is a point-in-time reading of the runtime's cumulative
// allocation and GC counters.
type runtimeSnap struct {
	allocBytes float64
	gcPause    float64 // seconds, summed over the pause histogram
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var snap runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		snap.gcPause = histogramSum(s[1].Value.Float64Histogram())
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[3].Value.Float64()
	}
	return snap
}

// histogramSum approximates the sum of a runtime histogram's samples by
// each bucket's lower bound (the upper bound of the last bucket is +Inf).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		lo := h.Buckets[i]
		if lo < 0 {
			lo = 0
		}
		sum += float64(c) * lo
	}
	return sum
}

// runtimeMetrics turns two snapshots around a phase that processed
// frames into the runtime.* per-layer metrics.
func runtimeMetrics(m map[string]float64, before, after runtimeSnap, frames int) {
	if frames > 0 {
		m["runtime.alloc_mb_per_kframe"] = (after.allocBytes - before.allocBytes) / (1 << 20) / (float64(frames) / 1000)
	}
	m["runtime.gc_pause_ms"] = (after.gcPause - before.gcPause) * 1000
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}
