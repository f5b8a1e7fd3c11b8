package core

import (
	"math"
	"testing"

	"github.com/tmerge/tmerge/internal/video"
)

// TestRankAndTruncateNaNLast: a NaN score ranks after every number, ties
// (±0 included) and NaN among themselves break by pair key, and the
// finite scores around a NaN stay sorted.
func TestRankAndTruncateNaNLast(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		scores []float64
		K      float64
		want   []int // indices into scores, in rank order
	}{
		{"top1 past a NaN", []float64{0.5, nan, 0.1}, 0.3, []int{2}},
		{"full", []float64{nan, 0.3, nan, 0.2, 0.4}, 1, []int{3, 1, 4, 0, 2}},
		{"all NaN", []float64{nan, nan, nan}, 1, []int{0, 1, 2}},
		{"infinities", []float64{inf, nan, -inf}, 1, []int{2, 0, 1}},
		{"signed zeros tie", []float64{0.2, math.Copysign(0, -1), 0, 0.1}, 1, []int{1, 2, 3, 0}},
		{"no NaN", []float64{0.9, 0.1, 0.5, 0.1, 0.7}, 0.6, []int{1, 3, 2}},
		{"NaN first in input", []float64{nan, 0.8, 0.6, 0.4, 0.2, nan, 0.1, 0.3}, 0.5, []int{6, 4, 7, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scored := make([]scoredPair, len(tc.scores))
			keys := make([]video.PairKey, len(tc.scores))
			for i, s := range tc.scores {
				keys[i] = video.MakePairKey(video.TrackID(2*i+1), video.TrackID(2*i+2))
				scored[i] = scoredPair{key: keys[i], score: s}
			}
			got := rankAndTruncate(scored, &video.PairSet{Pairs: make([]*video.Pair, len(tc.scores))}, tc.K)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d keys, want %d", len(got), len(tc.want))
			}
			for r, i := range tc.want {
				if got[r] != keys[i] {
					t.Fatalf("rank %d: got %v, want %v (score %v); full %v", r, got[r], keys[i], tc.scores[i], got)
				}
			}
		})
	}
}
