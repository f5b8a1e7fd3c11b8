package ingest

import (
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// selectWithFallback is the sequential reference selection (the same
// reference the core suites use): algo runs directly against the real
// oracle, and a *device.Unavailable panic mid-window degrades the window
// to the spatial prior.
func selectWithFallback(algo core.Algorithm, ps *video.PairSet, oracle *reid.Oracle, K float64) (selected []video.PairKey, degraded bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*device.Unavailable); !ok {
				panic(r)
			}
			selected = core.SpatialSelect(ps, K)
			degraded = true
		}
	}()
	return algo.Select(ps, oracle, K), false
}

// sequentialWindows is the reference core.WindowRunner: one window at a
// time on the calling goroutine, selected by selectWithFallback against
// the real oracle and merged before the next. workers is ignored.
func sequentialWindows(algo core.Algorithm, K float64, oracle *reid.Oracle, merger *core.Merger, inspect func(*video.Pair) bool, workers, n int, pairSet func(i int) *video.PairSet, emit func(i int, w core.WindowOutcome)) {
	for i := 0; i < n; i++ {
		ps := pairSet(i)
		var w core.WindowOutcome
		if ps.Len() > 0 {
			w.Selected, w.Degraded = selectWithFallback(algo, ps, oracle, K)
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

// newReference is New with the session's windows run by the sequential
// reference instead of core.RunWindows.
func newReference(engine *track.Engine, oracle *reid.Oracle, cfg Config) (*Ingestor, error) {
	in, err := New(engine, oracle, cfg)
	if err != nil {
		return nil, err
	}
	in.runWindows = sequentialWindows
	return in, nil
}
