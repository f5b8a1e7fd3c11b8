// Package video defines the core data model shared by the simulator, the
// trackers, and the merging algorithms: frames, bounding boxes (BBoxes),
// tracks, track sets, the half-overlapping window partitioning of §II of
// the paper, and the track-pair universe Pc (Equation 1).
package video

import (
	"fmt"
	"math"
	"sort"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/vecmath"
)

// FrameIndex identifies a frame within a video, starting at 0.
type FrameIndex int

// ObjectID is the ground-truth identity of a physical object. It is known
// to the simulator and the evaluation code only; the merging algorithms
// never consult it.
type ObjectID int

// TrackID is a tracker-assigned track identifier (TID in the paper).
type TrackID int

// ClassID is a detected object class (person, vehicle, ...). Class 0 is
// the default single-class setting; detectors that distinguish classes
// label every BBox, trackers never associate across classes, and queries
// may constrain on them (the paper's "two persons and one vehicle").
type ClassID int

// BBoxID uniquely identifies a bounding box within a video. It is the key
// of the ReID feature cache, implementing the paper's feature-reuse
// optimisation.
type BBoxID uint64

// BBox is one detection of one object in one frame, together with the
// appearance observation the ReID model consumes. In the paper a BBox's
// "content" is image pixels; here it is a noisy observation of the
// object's latent appearance vector produced by the scene simulator.
type BBox struct {
	ID    BBoxID
	Frame FrameIndex
	Rect  geom.Rect
	// Obs is the appearance observation ("pixel content"). The merging
	// algorithms only ever hand it to the ReID oracle.
	Obs vecmath.Vec
	// Class is the detected object class (0 when single-class).
	Class ClassID
	// GTObject is the ground-truth object identity, used for evaluation
	// only (computing P*c, MOT metrics, query recall). -1 when unknown.
	GTObject ObjectID
}

// MaxFrameIndex bounds the frame indices Validate accepts. At 30 fps,
// 2^40 frames is over a thousand years of footage — anything beyond it is
// a corrupt or hostile record, not a long stream.
const MaxFrameIndex FrameIndex = 1 << 40

// Validate reports whether the box is structurally usable: finite
// geometry, strictly positive width and height, a frame index in
// [0, MaxFrameIndex], and a finite appearance observation. It is the
// shared input-hardening gate: the dataset and trackdb loaders apply it
// to every record they accept, and the streaming ingestor quarantines
// detections that fail it instead of letting them corrupt tracker state
// (a NaN coordinate would poison every Kalman filter and IoU it touches).
func (b BBox) Validate() error {
	for _, f := range [...]float64{b.Rect.X, b.Rect.Y, b.Rect.W, b.Rect.H} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("video: bbox %d has non-finite geometry (%g, %g, %g, %g)",
				b.ID, b.Rect.X, b.Rect.Y, b.Rect.W, b.Rect.H)
		}
	}
	if b.Rect.W <= 0 || b.Rect.H <= 0 {
		return fmt.Errorf("video: bbox %d has non-positive size %gx%g", b.ID, b.Rect.W, b.Rect.H)
	}
	if b.Frame < 0 || b.Frame > MaxFrameIndex {
		return fmt.Errorf("video: bbox %d has frame index %d outside [0, %d]", b.ID, b.Frame, MaxFrameIndex)
	}
	for i, v := range b.Obs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("video: bbox %d has non-finite observation component %d", b.ID, i)
		}
	}
	return nil
}

// Track is a sequence of BBoxes with a single tracker-assigned ID, ordered
// by frame index.
type Track struct {
	ID    TrackID
	Boxes []BBox
}

// Len returns the number of BBoxes in the track.
func (t *Track) Len() int { return len(t.Boxes) }

// First returns the first (earliest) BBox. It panics on an empty track.
func (t *Track) First() BBox { return t.Boxes[0] }

// Last returns the last (latest) BBox. It panics on an empty track.
func (t *Track) Last() BBox { return t.Boxes[len(t.Boxes)-1] }

// StartFrame returns the frame of the first BBox.
func (t *Track) StartFrame() FrameIndex { return t.First().Frame }

// EndFrame returns the frame of the last BBox.
func (t *Track) EndFrame() FrameIndex { return t.Last().Frame }

// Span returns the number of frames the track covers, inclusive.
func (t *Track) Span() int { return int(t.EndFrame()-t.StartFrame()) + 1 }

// MajorityObject returns the GT object that owns the plurality of the
// track's BBoxes (ties to the smaller ID), together with the fraction of
// boxes it owns. It returns (-1, 0) for an empty track or a track of
// unknown objects.
//
// It allocates nothing: each pass over the boxes counts the smallest
// object ID above the previous pass's, so IDs are visited in ascending
// order and a later ID must own strictly more boxes to win. Passes stop
// once the boxes left unvisited cannot outnumber the leader, so a pure
// track costs one pass and a track of d objects at most d.
func (t *Track) MajorityObject() (ObjectID, float64) {
	best, bestN := ObjectID(-1), 0
	for prev := ObjectID(-1); ; {
		next, n, above := ObjectID(0), 0, 0
		for i := range t.Boxes {
			id := t.Boxes[i].GTObject
			if id <= prev {
				continue
			}
			above++
			switch {
			case n == 0 || id < next:
				next, n = id, 1
			case id == next:
				n++
			}
		}
		if n > bestN {
			best, bestN = next, n
		}
		if above-n <= bestN {
			break
		}
		prev = next
	}
	if bestN == 0 {
		return -1, 0
	}
	return best, float64(bestN) / float64(len(t.Boxes))
}

// Class returns the plurality class of the track's boxes (ties to the
// smaller ID; 0 for an empty track).
func (t *Track) Class() ClassID {
	counts := make(map[ClassID]int)
	for _, b := range t.Boxes {
		counts[b.Class]++
	}
	best, bestN := ClassID(0), -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	if bestN < 0 {
		return 0
	}
	return best
}

// Validate checks the track's internal invariants: at least one box and
// frame indices strictly increasing.
func (t *Track) Validate() error {
	if len(t.Boxes) == 0 {
		return fmt.Errorf("video: track %d has no boxes", t.ID)
	}
	for i := 1; i < len(t.Boxes); i++ {
		if t.Boxes[i].Frame <= t.Boxes[i-1].Frame {
			return fmt.Errorf("video: track %d frames not strictly increasing at index %d", t.ID, i)
		}
	}
	return nil
}

// TrackSet is a collection of tracks indexed by TrackID.
type TrackSet struct {
	tracks []*Track
	byID   map[TrackID]*Track
}

// NewTrackSet builds a TrackSet from tracks. Duplicate IDs panic: the
// tracker and the merger both guarantee uniqueness.
func NewTrackSet(tracks []*Track) *TrackSet {
	ts := &TrackSet{byID: make(map[TrackID]*Track, len(tracks))}
	for _, t := range tracks {
		ts.Add(t)
	}
	return ts
}

// Add inserts a track. It panics on a duplicate ID.
func (ts *TrackSet) Add(t *Track) {
	if _, dup := ts.byID[t.ID]; dup {
		panic(fmt.Sprintf("video: duplicate track ID %d", t.ID))
	}
	ts.tracks = append(ts.tracks, t)
	ts.byID[t.ID] = t
}

// Get returns the track with the given ID, or nil.
func (ts *TrackSet) Get(id TrackID) *Track {
	if ts == nil {
		return nil
	}
	return ts.byID[id]
}

// Len returns the number of tracks.
func (ts *TrackSet) Len() int {
	if ts == nil {
		return 0
	}
	return len(ts.tracks)
}

// Tracks returns the tracks in insertion order. The returned slice must
// not be modified.
func (ts *TrackSet) Tracks() []*Track {
	if ts == nil {
		return nil
	}
	return ts.tracks
}

// Sorted returns the tracks ordered by start frame, then by ID — the
// deterministic ordering the windowing and pair-enumeration code relies on.
func (ts *TrackSet) Sorted() []*Track {
	out := make([]*Track, len(ts.tracks))
	copy(out, ts.tracks)
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartFrame() != out[j].StartFrame() {
			return out[i].StartFrame() < out[j].StartFrame()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TotalBoxes returns the total number of BBoxes across all tracks.
func (ts *TrackSet) TotalBoxes() int {
	n := 0
	for _, t := range ts.tracks {
		n += len(t.Boxes)
	}
	return n
}
