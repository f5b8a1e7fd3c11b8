package motmetrics

import (
	"math"
	"testing"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/video"
)

// gtTrack builds a contiguous GT track for object obj over [start, end].
func gtTrack(obj video.ObjectID, start, end video.FrameIndex) *video.Track {
	t := &video.Track{ID: video.TrackID(obj)}
	for f := start; f <= end; f++ {
		t.Boxes = append(t.Boxes, video.BBox{
			ID:       video.BBoxID(int(obj)*100000 + int(f) + 1),
			Frame:    f,
			Rect:     geom.Rect{X: float64(f), W: 10, H: 10},
			GTObject: obj,
		})
	}
	return t
}

// hypTrack builds a hypothesis track labelled with object obj.
func hypTrack(id video.TrackID, obj video.ObjectID, start, end video.FrameIndex) *video.Track {
	t := &video.Track{ID: id}
	for f := start; f <= end; f++ {
		t.Boxes = append(t.Boxes, video.BBox{
			ID:       video.BBoxID(int(id)*1000000 + int(f) + 1),
			Frame:    f,
			Rect:     geom.Rect{X: float64(f), W: 10, H: 10},
			GTObject: obj,
		})
	}
	return t
}

func TestTrackObjectPurity(t *testing.T) {
	tr := hypTrack(1, 5, 0, 9)
	if got := TrackObject(tr); got != 5 {
		t.Errorf("TrackObject = %v", got)
	}
	// Contaminate beyond the purity threshold.
	for i := 0; i < 6; i++ {
		tr.Boxes[i].GTObject = video.ObjectID(100 + i) // all different
	}
	if got := TrackObject(tr); got != -1 {
		t.Errorf("impure track attributed to %v", got)
	}
}

func pairSet(tracks ...*video.Track) *video.PairSet {
	w := video.Window{Start: 0, End: 10000}
	return video.BuildPairSet(w, tracks, nil)
}

func TestPolyonymousPairs(t *testing.T) {
	// Tracks 1 and 2 are fragments of object 7; track 3 is object 8.
	a := hypTrack(1, 7, 0, 10)
	b := hypTrack(2, 7, 20, 30)
	c := hypTrack(3, 8, 0, 30)
	ps := pairSet(a, b, c)
	got := PolyonymousPairs(ps)
	if len(got) != 1 {
		t.Fatalf("got %d polyonymous pairs, want 1", len(got))
	}
	if !got[video.MakePairKey(1, 2)] {
		t.Error("pair (1,2) must be polyonymous")
	}
}

func TestPolyonymousPairsMatchesPerPair(t *testing.T) {
	// Fragments of five objects, some contaminated past the purity
	// threshold, some exactly at it, and one of unknown objects: the
	// per-call attribution must give the per-pair inspector's answer.
	var tracks []*video.Track
	for id := video.TrackID(1); id <= 24; id++ {
		tr := hypTrack(id, video.ObjectID(id%5), video.FrameIndex(id)*3, video.FrameIndex(id)*3+9)
		switch id % 4 {
		case 1:
			for i := 0; i < 5; i++ {
				tr.Boxes[i].GTObject = video.ObjectID(id%3 + 10) // 50%: at the threshold
			}
		case 2:
			for i := 0; i < 6; i++ {
				tr.Boxes[i].GTObject = 9 // majority switches to 9
			}
		case 3:
			if id > 20 {
				for i := range tr.Boxes {
					tr.Boxes[i].GTObject = -1
				}
			}
		}
		tracks = append(tracks, tr)
	}
	ps := pairSet(tracks...)
	got := PolyonymousPairs(ps)
	want := 0
	for _, p := range ps.Pairs {
		if Polyonymous(p) {
			want++
			if !got[p.Key] {
				t.Errorf("pair %v polyonymous but missing", p.Key)
			}
		}
	}
	if len(got) != want || want == 0 {
		t.Errorf("got %d pairs, per-pair inspector finds %d", len(got), want)
	}
}

func TestPolyonymousRate(t *testing.T) {
	a := hypTrack(1, 7, 0, 10)
	b := hypTrack(2, 7, 20, 30)
	c := hypTrack(3, 8, 0, 30)
	ps := pairSet(a, b, c) // 3 pairs, 1 polyonymous
	if got := PolyonymousRate(ps); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("rate = %v, want 1/3", got)
	}
	empty := pairSet()
	if got := PolyonymousRate(empty); got != 0 {
		t.Errorf("empty rate = %v", got)
	}
}

func TestResidualRate(t *testing.T) {
	a := hypTrack(1, 7, 0, 10)
	b := hypTrack(2, 7, 20, 30)
	c := hypTrack(3, 8, 0, 30)
	ps := pairSet(a, b, c)
	// Selecting the true pair removes it from the residual.
	if got := ResidualRate(ps, []video.PairKey{video.MakePairKey(1, 2)}); got != 0 {
		t.Errorf("residual = %v, want 0", got)
	}
	// Selecting an unrelated pair leaves the residual unchanged.
	if got := ResidualRate(ps, []video.PairKey{video.MakePairKey(1, 3)}); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("residual = %v, want 1/3", got)
	}
}

func TestIdentityPerfect(t *testing.T) {
	gt := video.NewTrackSet([]*video.Track{gtTrack(1, 0, 9), gtTrack(2, 0, 9)})
	hyp := video.NewTrackSet([]*video.Track{hypTrack(10, 1, 0, 9), hypTrack(11, 2, 0, 9)})
	m := Identity(gt, hyp)
	if m.IDF1 != 1 || m.IDP != 1 || m.IDR != 1 {
		t.Errorf("perfect identity = %+v", m)
	}
	if m.IDFP != 0 || m.IDFN != 0 || m.IDTP != 20 {
		t.Errorf("counts = %+v", m)
	}
}

func TestIdentityFragmentationPenalty(t *testing.T) {
	// One GT object covered by two fragments: only the larger fragment
	// counts as IDTP under one-to-one matching.
	gt := video.NewTrackSet([]*video.Track{gtTrack(1, 0, 9)})
	frag := video.NewTrackSet([]*video.Track{
		hypTrack(10, 1, 0, 5), // 6 boxes
		hypTrack(11, 1, 6, 9), // 4 boxes
	})
	m := Identity(gt, frag)
	if m.IDTP != 6 {
		t.Errorf("IDTP = %d, want 6 (larger fragment)", m.IDTP)
	}
	if m.IDFN != 4 || m.IDFP != 4 {
		t.Errorf("IDFN/IDFP = %d/%d", m.IDFN, m.IDFP)
	}
	if m.IDF1 >= 1 {
		t.Error("fragmentation must lower IDF1")
	}

	// Merging the fragments restores IDF1 = 1.
	merged := video.NewTrackSet([]*video.Track{hypTrack(10, 1, 0, 9)})
	if got := Identity(gt, merged); got.IDF1 != 1 {
		t.Errorf("merged IDF1 = %v", got.IDF1)
	}
}

func TestIdentityEmptyHypothesis(t *testing.T) {
	gt := video.NewTrackSet([]*video.Track{gtTrack(1, 0, 9)})
	m := Identity(gt, video.NewTrackSet(nil))
	if m.IDR != 0 || m.IDF1 != 0 {
		t.Errorf("empty hypothesis = %+v", m)
	}
	if m.IDFN != 10 {
		t.Errorf("IDFN = %d", m.IDFN)
	}
}

func TestCLEARPerfect(t *testing.T) {
	gt := video.NewTrackSet([]*video.Track{gtTrack(1, 0, 9)})
	hyp := video.NewTrackSet([]*video.Track{hypTrack(10, 1, 0, 9)})
	m := CLEAR(gt, hyp)
	if m.MOTA != 1 || m.Misses != 0 || m.IDSwitches != 0 || m.Fragments != 0 {
		t.Errorf("perfect CLEAR = %+v", m)
	}
}

func TestCLEARCountsEvents(t *testing.T) {
	gt := video.NewTrackSet([]*video.Track{gtTrack(1, 0, 9)})
	// Coverage: frames 0-3 by track 10, gap at 4, frames 5-9 by track 11:
	// 1 miss, 1 fragmentation, 1 ID switch.
	hyp := video.NewTrackSet([]*video.Track{
		hypTrack(10, 1, 0, 3),
		hypTrack(11, 1, 5, 9),
	})
	m := CLEAR(gt, hyp)
	if m.Misses != 1 {
		t.Errorf("misses = %d", m.Misses)
	}
	if m.Fragments != 1 {
		t.Errorf("fragments = %d", m.Fragments)
	}
	if m.IDSwitches != 1 {
		t.Errorf("ID switches = %d", m.IDSwitches)
	}
	wantMOTA := 1 - float64(1+0+1)/10
	if math.Abs(m.MOTA-wantMOTA) > 1e-12 {
		t.Errorf("MOTA = %v, want %v", m.MOTA, wantMOTA)
	}
}

func TestCLEARFalsePositives(t *testing.T) {
	gt := video.NewTrackSet([]*video.Track{gtTrack(1, 0, 9)})
	fp := hypTrack(12, -1, 0, 4) // boxes with no GT object
	hyp := video.NewTrackSet([]*video.Track{hypTrack(10, 1, 0, 9), fp})
	m := CLEAR(gt, hyp)
	if m.FalsePos != 5 {
		t.Errorf("false positives = %d", m.FalsePos)
	}
}
