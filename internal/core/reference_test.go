package core

import (
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// SelectWithFallback is the sequential reference selection: algo runs
// over the pair universe directly against the real oracle, degrading to
// the spatial prior when the oracle's device gives out mid-window. A
// fallible device whose submission cannot be completed (retry budget
// exhausted, circuit breaker open) panics with *device.Unavailable; this
// wrapper recovers exactly that panic, re-ranks the window's candidates
// with SpatialSelect, and reports degraded=true. Any other panic
// propagates.
//
// Production selection speculates and then certifies (RunWindows); the
// equivalence suites hold it to this reference.
func SelectWithFallback(algo Algorithm, ps *video.PairSet, oracle *reid.Oracle, K float64) (selected []video.PairKey, degraded bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*device.Unavailable); !ok {
				panic(r)
			}
			selected = SpatialSelect(ps, K)
			degraded = true
		}
	}()
	return algo.Select(ps, oracle, K), false
}

// sequentialWindows is the reference WindowRunner: one window at a time
// on the calling goroutine, each selected by SelectWithFallback against
// the real oracle and merged before the next is built. workers is
// ignored.
func sequentialWindows(algo Algorithm, K float64, oracle *reid.Oracle, merger *Merger, inspect func(*video.Pair) bool, workers, n int, pairSet func(i int) *video.PairSet, emit func(i int, w WindowOutcome)) {
	for i := 0; i < n; i++ {
		ps := pairSet(i)
		var w WindowOutcome
		if ps.Len() > 0 {
			w.Selected, w.Degraded = SelectWithFallback(algo, ps, oracle, K)
		}
		seq := merger.EventCount()
		for _, key := range w.Selected {
			if inspect == nil || inspect(ps.Get(key)) {
				merger.Merge(key)
				w.Merged = append(w.Merged, key)
			}
		}
		if events := merger.EventsSince(seq); len(events) > 0 {
			w.Events = events
		}
		emit(i, w)
	}
}

// referencePipeline is TryRunPipeline on the sequential reference.
func referencePipeline(tracks *video.TrackSet, numFrames int, oracle *reid.Oracle, cfg PipelineConfig) (*PipelineResult, error) {
	return tryRunPipeline(tracks, numFrames, oracle, cfg, sequentialWindows)
}
