package core

import (
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// Spatial ranks candidates by the BetaInit spatial prior alone — DisS
// ascending, no oracle calls. Fragments of one object end and start near
// each other (§IV-C), so spatial proximity is an informative, zero-cost
// ranking: much weaker than ReID-backed selection, but available even
// when the ReID device is down. It serves two roles: the degraded-mode
// fallback used by RunPipeline and ingest.Ingestor when the device's
// circuit breaker is open, and a free-of-charge baseline for how much of
// TMerge's recall is bought by the prior alone.
type Spatial struct{}

// NewSpatial returns the spatial-prior ranker.
func NewSpatial() *Spatial { return &Spatial{} }

// Name implements Algorithm.
func (a *Spatial) Name() string { return "Spatial" }

// Select implements Algorithm. The oracle is never consulted and may be
// nil.
func (a *Spatial) Select(ps *video.PairSet, oracle *reid.Oracle, K float64) []video.PairKey {
	return SpatialSelect(ps, K)
}

// SpatialSelect ranks the pair universe by spatial distance ascending
// and truncates to the top-⌈K·|Pc|⌉.
func SpatialSelect(ps *video.PairSet, K float64) []video.PairKey {
	scored := make([]scoredPair, ps.Len())
	for i, p := range ps.Pairs {
		scored[i] = scoredPair{key: p.Key, score: p.DisS}
	}
	return rankAndTruncate(scored, ps, K)
}
