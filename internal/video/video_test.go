package video

import (
	"testing"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/xrand"
)

// mkTrack builds a track with boxes at the given frames.
func mkTrack(id TrackID, frames ...FrameIndex) *Track {
	t := &Track{ID: id}
	for i, f := range frames {
		t.Boxes = append(t.Boxes, BBox{
			ID:       BBoxID(int(id)*10000 + i),
			Frame:    f,
			Rect:     geom.Rect{X: float64(f), Y: 0, W: 10, H: 10},
			GTObject: ObjectID(id),
		})
	}
	return t
}

func TestTrackAccessors(t *testing.T) {
	tr := mkTrack(1, 5, 7, 9)
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.First().Frame != 5 || tr.Last().Frame != 9 {
		t.Errorf("First/Last = %d/%d", tr.First().Frame, tr.Last().Frame)
	}
	if tr.StartFrame() != 5 || tr.EndFrame() != 9 {
		t.Errorf("Start/End = %d/%d", tr.StartFrame(), tr.EndFrame())
	}
	if tr.Span() != 5 {
		t.Errorf("Span = %d, want 5", tr.Span())
	}
}

func TestTrackValidate(t *testing.T) {
	if err := mkTrack(1, 1, 2, 3).Validate(); err != nil {
		t.Errorf("valid track: %v", err)
	}
	if err := (&Track{ID: 2}).Validate(); err == nil {
		t.Error("empty track must fail validation")
	}
	bad := mkTrack(3, 5, 5)
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing frames must fail validation")
	}
}

func TestMajorityObject(t *testing.T) {
	tr := mkTrack(1, 1, 2, 3, 4)
	// Contaminate one box with a different object.
	tr.Boxes[3].GTObject = 9
	obj, purity := tr.MajorityObject()
	if obj != 1 {
		t.Errorf("majority = %v", obj)
	}
	if purity != 0.75 {
		t.Errorf("purity = %v", purity)
	}

	empty := &Track{ID: 5}
	if obj, p := empty.MajorityObject(); obj != -1 || p != 0 {
		t.Errorf("empty majority = %v/%v", obj, p)
	}

	unknown := mkTrack(6, 1, 2)
	unknown.Boxes[0].GTObject = -1
	unknown.Boxes[1].GTObject = -1
	if obj, _ := unknown.MajorityObject(); obj != -1 {
		t.Errorf("unknown majority = %v", obj)
	}
}

func TestMajorityObjectTieBreak(t *testing.T) {
	tr := mkTrack(1, 1, 2)
	tr.Boxes[0].GTObject = 7
	tr.Boxes[1].GTObject = 3
	obj, _ := tr.MajorityObject()
	if obj != 3 {
		t.Errorf("tie must resolve to smaller ID, got %v", obj)
	}
}

// majorityByCounting is the map-tally MajorityObject replaced, kept as
// its test oracle.
func majorityByCounting(t *Track) (ObjectID, float64) {
	counts := make(map[ObjectID]int)
	for _, b := range t.Boxes {
		if b.GTObject >= 0 {
			counts[b.GTObject]++
		}
	}
	best, bestN := ObjectID(-1), 0
	for id, n := range counts {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	if bestN == 0 {
		return -1, 0
	}
	return best, float64(bestN) / float64(len(t.Boxes))
}

func TestMajorityObjectMatchesCounting(t *testing.T) {
	r := xrand.New(3)
	for rep := 0; rep < 2000; rep++ {
		tr := &Track{ID: 1, Boxes: make([]BBox, r.Intn(40))}
		objects := 1 + r.Intn(6)
		for i := range tr.Boxes {
			// -1 is an unknown object; small ranges force ties.
			tr.Boxes[i].GTObject = ObjectID(r.Intn(objects+1) - 1)
		}
		gotObj, gotPurity := tr.MajorityObject()
		wantObj, wantPurity := majorityByCounting(tr)
		if gotObj != wantObj || gotPurity != wantPurity {
			t.Fatalf("boxes %v: got %v/%v, want %v/%v", tr.Boxes, gotObj, gotPurity, wantObj, wantPurity)
		}
	}
}

func TestMajorityObjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	tr := mkTrack(1, 1, 2, 3, 4, 5, 6)
	tr.Boxes[2].GTObject = 9
	tr.Boxes[4].GTObject = 4
	if got := testing.AllocsPerRun(100, func() { tr.MajorityObject() }); got != 0 {
		t.Errorf("MajorityObject: %v allocs, want 0", got)
	}
}

func TestTrackSet(t *testing.T) {
	a := mkTrack(1, 1, 2)
	b := mkTrack(2, 3, 4)
	ts := NewTrackSet([]*Track{a, b})
	if ts.Len() != 2 {
		t.Errorf("Len = %d", ts.Len())
	}
	if ts.Get(1) != a || ts.Get(2) != b {
		t.Error("Get returned the wrong track")
	}
	if ts.Get(99) != nil {
		t.Error("Get of missing ID must be nil")
	}
	if ts.TotalBoxes() != 4 {
		t.Errorf("TotalBoxes = %d", ts.TotalBoxes())
	}
}

func TestTrackSetDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate ID")
		}
	}()
	NewTrackSet([]*Track{mkTrack(1, 1), mkTrack(1, 2)})
}

func TestTrackSetSorted(t *testing.T) {
	// Same start frame: tie by ID; different start: by start.
	a := mkTrack(5, 10, 11)
	b := mkTrack(2, 10, 12)
	c := mkTrack(9, 3, 4)
	ts := NewTrackSet([]*Track{a, b, c})
	got := ts.Sorted()
	if got[0] != c || got[1] != b || got[2] != a {
		t.Errorf("Sorted order = %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestNilTrackSet(t *testing.T) {
	var ts *TrackSet
	if ts.Len() != 0 || ts.Get(1) != nil || ts.Tracks() != nil {
		t.Error("nil TrackSet accessors must be zero-valued")
	}
}

func TestTrackClass(t *testing.T) {
	tr := mkTrack(1, 1, 2, 3)
	if tr.Class() != 0 {
		t.Errorf("default class = %d", tr.Class())
	}
	tr.Boxes[0].Class = 2
	tr.Boxes[1].Class = 2
	tr.Boxes[2].Class = 1
	if tr.Class() != 2 {
		t.Errorf("majority class = %d, want 2", tr.Class())
	}
	// Tie breaks to the smaller class ID.
	tie := mkTrack(2, 1, 2)
	tie.Boxes[0].Class = 3
	tie.Boxes[1].Class = 1
	if tie.Class() != 1 {
		t.Errorf("tie class = %d, want 1", tie.Class())
	}
	if (&Track{}).Class() != 0 {
		t.Error("empty track class must be 0")
	}
}
