// Package motmetrics implements the tracking evaluation machinery the
// paper relies on: derivation of the ground-truth polyonymous pair sets
// P*c (Equation 2), the Polyonymous Rate (§V-G), the identity metrics
// IDF1/IDP/IDR of Ristani et al. used in Figure 12, and CLEAR-MOT-style
// counts (misses, ID switches, fragmentation).
//
// Because the simulator labels every detection with its true object
// (video.BBox.GTObject), box-level correspondence is exact and no IoU
// matching heuristic is needed: a hypothesis box is a true positive for GT
// object g exactly when its GTObject is g. Identity metrics still require
// the global one-to-one track matching, solved with the Hungarian
// algorithm as in the reference implementation.
package motmetrics

import (
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// MinPurity is the fraction of a track's boxes its majority object must
// own for the track to be attributed to that object when deriving
// polyonymous pairs. Tracks below the threshold (heavily contaminated by
// ID switches) are attributed to no object.
const MinPurity = 0.5

// TrackObject returns the GT object a track is attributed to, or -1 when
// the track is too impure to attribute.
func TrackObject(t *video.Track) video.ObjectID {
	obj, purity := t.MajorityObject()
	if purity < MinPurity {
		return -1
	}
	return obj
}

// PolyonymousPairs returns P*c for the pair universe ps: the set of pairs
// whose two tracks are attributed to the same GT object (they are
// fragments of the same ground-truth track).
func PolyonymousPairs(ps *video.PairSet) map[video.PairKey]bool {
	out := make(map[video.PairKey]bool)
	// A track belongs to many pairs; attribute each one once.
	objects := make(map[*video.Track]video.ObjectID)
	object := func(t *video.Track) video.ObjectID {
		obj, ok := objects[t]
		if !ok {
			obj = TrackObject(t)
			objects[t] = obj
		}
		return obj
	}
	for _, p := range ps.Pairs {
		if oi := object(p.TI); oi >= 0 && oi == object(p.TJ) {
			out[p.Key] = true
		}
	}
	return out
}

// Polyonymous reports whether both tracks of p are attributed to the
// same GT object — membership in P*c. It is the ground-truth inspector
// of the paper's verification workflow.
func Polyonymous(p *video.Pair) bool {
	oi := TrackObject(p.TI)
	return oi >= 0 && oi == TrackObject(p.TJ)
}

// PolyonymousRate returns |P*c| / |Pc| (§V-G). Zero for an empty universe.
func PolyonymousRate(ps *video.PairSet) float64 {
	if ps.Len() == 0 {
		return 0
	}
	return float64(len(PolyonymousPairs(ps))) / float64(ps.Len())
}

// IdentityMetrics holds the identity-based scores of Ristani et al.
type IdentityMetrics struct {
	IDTP, IDFP, IDFN int
	IDF1, IDP, IDR   float64
}

// Identity computes IDF1/IDP/IDR between the ground-truth tracks gt and
// the hypothesis tracks hyp via the global one-to-one track matching that
// maximises identity true positives.
func Identity(gt, hyp *video.TrackSet) IdentityMetrics {
	gts := gt.Sorted()
	hys := hyp.Sorted()

	totalGT := gt.TotalBoxes()
	totalHyp := hyp.TotalBoxes()

	var idtp int
	if len(gts) > 0 && len(hys) > 0 {
		// Overlap[i][j] = #frames hypothesis j's boxes belong to GT i's object
		// while GT i is present at that frame.
		cost := make([][]float64, len(gts))
		for i, g := range gts {
			present := make(map[video.FrameIndex]bool, len(g.Boxes))
			for _, b := range g.Boxes {
				present[b.Frame] = true
			}
			obj := video.ObjectID(-1)
			if len(g.Boxes) > 0 {
				obj = g.Boxes[0].GTObject
			}
			cost[i] = make([]float64, len(hys))
			for j, h := range hys {
				overlap := 0
				for _, b := range h.Boxes {
					if b.GTObject == obj && present[b.Frame] {
						overlap++
					}
				}
				// Hungarian minimises; negate the overlap.
				cost[i][j] = -float64(overlap)
			}
		}
		assign := track.Hungarian(cost)
		for i, j := range assign {
			if j >= 0 {
				idtp += int(-cost[i][j])
			}
		}
	}

	m := IdentityMetrics{
		IDTP: idtp,
		IDFP: totalHyp - idtp,
		IDFN: totalGT - idtp,
	}
	if totalHyp > 0 {
		m.IDP = float64(idtp) / float64(totalHyp)
	}
	if totalGT > 0 {
		m.IDR = float64(idtp) / float64(totalGT)
	}
	if totalGT+totalHyp > 0 {
		m.IDF1 = 2 * float64(idtp) / float64(totalGT+totalHyp)
	}
	return m
}

// CLEARMetrics holds CLEAR-MOT-style event counts.
type CLEARMetrics struct {
	GTBoxes    int // ground-truth boxes
	Misses     int // GT (object, frame) pairs with no hypothesis box
	FalsePos   int // hypothesis boxes attributable to no present GT object
	IDSwitches int // object covered by a different track than previously
	Fragments  int // coverage interruptions of an object
	MOTA       float64
}

// CLEAR computes the CLEAR-MOT counts. Correspondence is exact via
// GTObject labels, so the per-frame matching step of the original metric
// degenerates to a lookup.
func CLEAR(gt, hyp *video.TrackSet) CLEARMetrics {
	// Index hypothesis boxes by (object, frame) -> track ID.
	type of struct {
		o video.ObjectID
		f video.FrameIndex
	}
	cover := make(map[of]video.TrackID)
	hypBoxes := 0
	falsePos := 0
	for _, h := range hyp.Tracks() {
		for _, b := range h.Boxes {
			hypBoxes++
			if b.GTObject < 0 {
				falsePos++
				continue
			}
			cover[of{b.GTObject, b.Frame}] = h.ID
		}
	}

	m := CLEARMetrics{FalsePos: falsePos}
	for _, g := range gt.Tracks() {
		if len(g.Boxes) == 0 {
			continue
		}
		obj := g.Boxes[0].GTObject
		var (
			lastTrack   video.TrackID = -1
			covered     bool
			wasCovered  bool
			everCovered bool
		)
		for _, b := range g.Boxes {
			m.GTBoxes++
			tid, ok := cover[of{obj, b.Frame}]
			covered = ok
			if !ok {
				m.Misses++
			} else {
				if lastTrack >= 0 && tid != lastTrack {
					m.IDSwitches++
				}
				if everCovered && !wasCovered {
					m.Fragments++
				}
				lastTrack = tid
				everCovered = true
			}
			wasCovered = covered
		}
	}
	if m.GTBoxes > 0 {
		m.MOTA = 1 - float64(m.Misses+m.FalsePos+m.IDSwitches)/float64(m.GTBoxes)
	}
	return m
}
