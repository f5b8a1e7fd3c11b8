package core

import (
	"testing"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

// maxSpeculateAllocsPerWindow caps the steady-state allocation count of
// one window's speculative selection (session setup, the full bandit
// run, and the submission log) on the fixture below.
// The cap carries ~3x headroom over the measured count; its job is to
// catch the kind of regression that reintroduces per-iteration garbage
// — which multiplies the figure a hundredfold — not to pin the exact
// value.
const maxSpeculateAllocsPerWindow = 4000

func speculateAllocFixture() (*fixture, *reid.Oracle, *reid.FeatureStore, Algorithm) {
	fx := newFixture(7, 6, 4, 8)
	oracle := newFixtureOracle(7)
	store := reid.NewFeatureStore()
	cfg := DefaultTMergeConfig(7)
	cfg.TauMax = 500
	return fx, oracle, store, NewTMerge(cfg)
}

// TestSpeculateSelectionAllocs pins the per-window allocation count of
// the speculate path — the quantity that governs how well the parallel
// executor scales, since allocation is the one resource the otherwise
// independent workers still share (via the GC).
func TestSpeculateSelectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	fx, oracle, store, algo := speculateAllocFixture()
	// Warm: fills the feature store, so steady-state windows re-embed
	// nothing (like overlapping windows of one pass), and grows the
	// pooled plan scratch.
	speculateSelection(algo, fx.ps, oracle, store, 0.2)
	got := testing.AllocsPerRun(10, func() {
		speculateSelection(algo, fx.ps, oracle, store, 0.2)
	})
	if got > maxSpeculateAllocsPerWindow {
		t.Errorf("speculative window selection: %v allocs, cap %v", got, maxSpeculateAllocsPerWindow)
	}
	t.Logf("speculative window selection: %v allocs/window (cap %v)", got, maxSpeculateAllocsPerWindow)
}

// maxApplyAllocsPerGroup caps Merger.Apply's allocation count per
// output track. The rewrite inherently allocates its output — one
// track, one box slice, and the TrackSet bookkeeping per group, plus a
// handful of sort.Slice closures — but the grouping maps and the
// frame-sort buffer are merger-owned scratch, so the figure must stay
// a small constant per group instead of growing with repeat calls or
// with boxes. Measured ~11/group; the cap carries ~3x headroom, like
// the speculate pin, to catch garbage-per-box regressions rather than
// pin the exact figure.
const maxApplyAllocsPerGroup = 32

// TestMergerApplyAllocs pins the steady-state allocation count of the
// union rewrite — the path every MergedTracks snapshot and batch answer
// goes through.
func TestMergerApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	const groups, frags, boxes = 30, 3, 6
	var tracks []*video.Track
	id := video.TrackID(0)
	bid := video.BBoxID(0)
	for g := 0; g < groups; g++ {
		for k := 0; k < frags; k++ {
			tr := &video.Track{ID: id}
			// Fragments overlap in time so the frame dedup actually runs.
			start := g*40 + k*(boxes-2)
			for f := 0; f < boxes; f++ {
				tr.Boxes = append(tr.Boxes, video.BBox{
					ID:    bid,
					Frame: video.FrameIndex(start + f),
					Rect:  geom.Rect{X: float64(f), Y: float64(g), W: 4, H: 4},
				})
				bid++
			}
			tracks = append(tracks, tr)
			id++
		}
	}
	m := NewMerger()
	for g := 0; g < groups; g++ {
		base := video.TrackID(g * frags)
		m.Merge(video.MakePairKey(base, base+1))
		m.Merge(video.MakePairKey(base, base+2))
	}
	ts := video.NewTrackSet(tracks)
	m.Apply(ts) // warm the scratch
	got := testing.AllocsPerRun(20, func() { m.Apply(ts) })
	if cap := float64(groups * maxApplyAllocsPerGroup); got > cap {
		t.Errorf("Merger.Apply: %v allocs for %d groups, cap %v", got, groups, cap)
	}
	t.Logf("Merger.Apply: %v allocs for %d groups (cap %d/group)", got, groups, maxApplyAllocsPerGroup)
}

// TestIndexSamplerNextAllocs pins the bandit draw path at zero: a
// sampler reinitialised in place and drawn from within its inline
// displacement capacity — the shape of virtually every sampler the
// selection loops create — must not allocate at all.
func TestIndexSamplerNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	rng := xrand.New(11)
	var s indexSampler
	got := testing.AllocsPerRun(100, func() {
		s.init(512, rng)
		for i := 0; i < samplerInline-1; i++ {
			s.Next()
		}
	})
	if got != 0 {
		t.Errorf("indexSampler init+%d draws: %v allocs, want 0", samplerInline-1, got)
	}
}

func BenchmarkSpeculateSelection(b *testing.B) {
	fx, oracle, store, algo := speculateAllocFixture()
	speculateSelection(algo, fx.ps, oracle, store, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		speculateSelection(algo, fx.ps, oracle, store, 0.2)
	}
}
