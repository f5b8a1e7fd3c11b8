package trackdb

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"testing/quick"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

func mk(id video.TrackID, start, end video.FrameIndex) *video.Track {
	t := &video.Track{ID: id}
	for f := start; f <= end; f++ {
		t.Boxes = append(t.Boxes, video.BBox{
			ID:    video.BBoxID(int(id)*100000 + int(f) + 1),
			Frame: f,
			Rect:  geom.Rect{X: float64(f), W: 5, H: 5},
		})
	}
	return t
}

func TestPutGetDelete(t *testing.T) {
	s := New()
	a := mk(1, 0, 10)
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if s.Get(1) != a {
		t.Error("Get returned wrong track")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Delete(1)
	if s.Get(1) != nil || s.Len() != 0 {
		t.Error("Delete failed")
	}
	s.Delete(99) // no-op
}

func TestPutRejectsInvalid(t *testing.T) {
	s := New()
	if err := s.Put(&video.Track{ID: 1}); err == nil {
		t.Error("empty track accepted")
	}
}

func TestTracksInRange(t *testing.T) {
	s := New()
	tracks := []*video.Track{
		mk(1, 0, 10),
		mk(2, 5, 25),
		mk(3, 20, 30),
		mk(4, 50, 60),
	}
	for _, tr := range tracks {
		if err := s.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		lo, hi video.FrameIndex
		want   []video.TrackID
	}{
		{0, 4, []video.TrackID{1}},
		{8, 12, []video.TrackID{1, 2}},
		{22, 24, []video.TrackID{2, 3}},
		{0, 100, []video.TrackID{1, 2, 3, 4}},
		{31, 49, nil},
		{60, 60, []video.TrackID{4}},
		{10, 5, nil}, // inverted range
	}
	for _, c := range cases {
		got := s.TracksInRange(c.lo, c.hi)
		ids := make([]video.TrackID, len(got))
		for i, tr := range got {
			ids[i] = tr.ID
		}
		if len(ids) != len(c.want) {
			t.Errorf("range [%d,%d] = %v, want %v", c.lo, c.hi, ids, c.want)
			continue
		}
		for i := range ids {
			if ids[i] != c.want[i] {
				t.Errorf("range [%d,%d] = %v, want %v", c.lo, c.hi, ids, c.want)
				break
			}
		}
	}
}

func TestPresentAt(t *testing.T) {
	s := New()
	// Track with a gap at frame 5.
	tr := &video.Track{ID: 1}
	for _, f := range []video.FrameIndex{3, 4, 6, 7} {
		tr.Boxes = append(tr.Boxes, video.BBox{ID: video.BBoxID(f + 1), Frame: f, Rect: geom.Rect{W: 1, H: 1}})
	}
	if err := s.Put(tr); err != nil {
		t.Fatal(err)
	}
	if got := s.PresentAt(4); len(got) != 1 {
		t.Errorf("PresentAt(4) = %d tracks", len(got))
	}
	if got := s.PresentAt(5); len(got) != 0 {
		t.Errorf("PresentAt(5) = %d tracks, want 0 (gap)", len(got))
	}
}

func TestApplyMerge(t *testing.T) {
	s := New()
	for _, tr := range []*video.Track{mk(1, 0, 10), mk(2, 20, 30), mk(3, 40, 50)} {
		if err := s.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	m := core.NewMerger()
	m.Merge(video.MakePairKey(1, 2))
	removed := s.ApplyMerge(m)
	if removed != 1 {
		t.Errorf("removed = %d", removed)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	u := s.Get(1)
	if u == nil || u.Len() != 22 {
		t.Fatalf("merged track missing or wrong size: %v", u)
	}
	if s.Get(2) != nil {
		t.Error("absorbed ID still present")
	}
	// Index stays consistent after the merge.
	if got := s.TracksInRange(25, 26); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("post-merge range query = %v", got)
	}
}

func TestStats(t *testing.T) {
	s := New()
	if st := s.Stats(); st.Tracks != 0 || st.Boxes != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	s.Put(mk(1, 5, 10))
	s.Put(mk(2, 2, 4))
	st := s.Stats()
	if st.Tracks != 2 || st.Boxes != 9 || st.FirstFrame != 2 || st.LastFrame != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFromTrackSet(t *testing.T) {
	ts := video.NewTrackSet([]*video.Track{mk(1, 0, 5), mk(2, 10, 15)})
	s := FromTrackSet(ts)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	back := s.TrackSet()
	if back.Len() != 2 {
		t.Errorf("round trip = %d", back.Len())
	}
}

// Property: TracksInRange matches a brute-force scan for random stores
// and random ranges.
func TestTracksInRangeMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		s := New()
		n := 1 + int(seed%40)
		var all []*video.Track
		for i := 0; i < n; i++ {
			start := video.FrameIndex(r.Intn(200))
			end := start + video.FrameIndex(r.Intn(50))
			tr := mk(video.TrackID(i+1), start, end)
			all = append(all, tr)
			if err := s.Put(tr); err != nil {
				return false
			}
		}
		for q := 0; q < 20; q++ {
			lo := video.FrameIndex(r.Intn(260))
			hi := lo + video.FrameIndex(r.Intn(80))
			got := s.TracksInRange(lo, hi)
			want := map[video.TrackID]bool{}
			for _, tr := range all {
				if tr.StartFrame() <= hi && tr.EndFrame() >= lo {
					want[tr.ID] = true
				}
			}
			if len(got) != len(want) {
				return false
			}
			for _, tr := range got {
				if !want[tr.ID] {
					return false
				}
			}
			// Ordered by start then ID.
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if a.StartFrame() > b.StartFrame() ||
					(a.StartFrame() == b.StartFrame() && a.ID >= b.ID) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexRebuildAfterMutation(t *testing.T) {
	s := New()
	s.Put(mk(1, 0, 10))
	_ = s.TracksInRange(0, 100) // build index
	s.Put(mk(2, 50, 60))        // mutate
	got := s.TracksInRange(55, 56)
	if len(got) != 1 || got[0].ID != 2 {
		t.Errorf("stale index: %v", got)
	}
	s.Delete(2)
	if got := s.TracksInRange(55, 56); len(got) != 0 {
		t.Errorf("stale index after delete: %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	for _, tr := range []*video.Track{mk(3, 0, 10), mk(1, 20, 30)} {
		if err := s.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/store.json.gz"
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d tracks", got.Len())
	}
	for _, id := range []video.TrackID{1, 3} {
		a, b := s.Get(id), got.Get(id)
		if b == nil || a.Len() != b.Len() {
			t.Fatalf("track %d round trip failed", id)
		}
		for i := range a.Boxes {
			if a.Boxes[i].ID != b.Boxes[i].ID || a.Boxes[i].Rect != b.Boxes[i].Rect ||
				a.Boxes[i].Frame != b.Boxes[i].Frame {
				t.Fatalf("track %d box %d differs", id, i)
			}
		}
	}
	// Index works post-load.
	if got2 := got.TracksInRange(25, 26); len(got2) != 1 || got2[0].ID != 1 {
		t.Errorf("post-load range query = %v", got2)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(t.TempDir() + "/nope.json.gz"); err == nil {
		t.Error("expected error")
	}
}

// Load reads a store previously written by Save.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trackdb: load: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("trackdb: load: %w", err)
	}
	defer gz.Close()
	return Decode(gz)
}

// Decode reads a store from (uncompressed) JSON. Untrusted input is
// validated record by record: every box must pass video.BBox.Validate
// (finite geometry, positive size), every track its own invariants, and
// track IDs must be unique. A hostile file is rejected with a
// descriptive error; it can never panic the decoder or plant a
// non-finite value in the store.
func Decode(r io.Reader) (*Store, error) {
	var in jsonStore
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trackdb: decode: %w", err)
	}
	s := New()
	for _, jt := range in.Tracks {
		if s.Get(jt.ID) != nil {
			return nil, fmt.Errorf("trackdb: decode: duplicate track %d", jt.ID)
		}
		t := &video.Track{ID: jt.ID}
		for _, jb := range jt.Boxes {
			b := video.BBox{
				ID:       jb.ID,
				Frame:    jb.Frame,
				Rect:     geom.Rect{X: jb.X, Y: jb.Y, W: jb.W, H: jb.H},
				Class:    jb.Class,
				GTObject: jb.GT,
			}
			if err := b.Validate(); err != nil {
				return nil, fmt.Errorf("trackdb: decode: track %d: %w", jt.ID, err)
			}
			t.Boxes = append(t.Boxes, b)
		}
		if err := s.Put(t); err != nil {
			return nil, fmt.Errorf("trackdb: decode: %w", err)
		}
	}
	return s, nil
}
