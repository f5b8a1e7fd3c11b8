package core

import (
	"sort"

	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// Algorithm selects the estimated top-⌈K·|Pc|⌉ polyonymous track-pair
// candidates from a pair universe, consulting the ReID oracle for BBox
// pair distances. Implementations must be deterministic given their seeds.
type Algorithm interface {
	// Name identifies the algorithm in reports ("BL", "PS", "LCB",
	// "TMerge", and their "-B" batched variants).
	Name() string
	// Select returns the candidate set P̂*c|K, ordered most-promising
	// first (lowest estimated score first).
	Select(ps *video.PairSet, oracle *reid.Oracle, K float64) []video.PairKey
}

// scored pairs ranking helper shared by the algorithms: sorts ascending by
// score with the deterministic pair-key tiebreak, then truncates to the
// top-⌈K·|Pc|⌉. A NaN score (a NaN distance propagates into a mean) ranks
// after every number: the comparison must be a total order, or one NaN
// can leave the finite scores around it unsorted.
type scoredPair struct {
	key   video.PairKey
	score float64
}

func rankAndTruncate(scored []scoredPair, ps *video.PairSet, K float64) []video.PairKey {
	sort.Slice(scored, func(i, j int) bool {
		si, sj := scored[i].score, scored[j].score
		if ni, nj := si != si, sj != sj; ni != nj {
			return nj
		}
		if si != sj && si == si {
			return si < sj
		}
		if scored[i].key.A != scored[j].key.A {
			return scored[i].key.A < scored[j].key.A
		}
		return scored[i].key.B < scored[j].key.B
	})
	n := ps.TopCount(K)
	if n > len(scored) {
		n = len(scored)
	}
	out := make([]video.PairKey, n)
	for i := 0; i < n; i++ {
		out[i] = scored[i].key
	}
	return out
}

// chunkPairs splits work items into batches of at most batch elements.
// batch <= 1 yields singleton batches (sequential execution).
func chunkPairs(n, batch int) [][2]int {
	if batch < 1 {
		batch = 1
	}
	var spans [][2]int
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		spans = append(spans, [2]int{start, end})
	}
	return spans
}
