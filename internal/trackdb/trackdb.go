// Package trackdb implements the track-metadata store a video query
// system keeps its extracted metadata in — the storage substrate that
// downstream declarative queries (package query) and the identity merger
// (package core) operate against.
//
// The store indexes tracks by their frame interval with a segment-max
// tree over end frames in start order, so time-range scans — the access
// pattern of windowed ingestion and of temporal queries — run in
// O(log n + k) instead of O(n). Merging rewrites identities in place and
// keeps the index consistent.
//
// LiveView (live.go) is the streaming counterpart: the merged-track view
// kept current per window from track extensions and merge events. It is
// the only view type. A view that evicts old tracks to a cold tier pages
// them back from the ColdStore attached to it — in a history session,
// the session's log.
package trackdb

import (
	"fmt"
	"sort"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/video"
)

// Store is a track-metadata database. It is not safe for concurrent
// mutation; concurrent readers are safe between mutations.
type Store struct {
	byID map[video.TrackID]*video.Track

	// Interval index: tracks sorted by start frame with a segment tree
	// over end frames. Rebuilt lazily after mutations.
	sorted []*video.Track
	segMax []video.FrameIndex
	dirty  bool
}

// New returns an empty store.
func New() *Store {
	return &Store{byID: make(map[video.TrackID]*video.Track)}
}

// FromTrackSet builds a store holding the given tracks.
func FromTrackSet(ts *video.TrackSet) *Store {
	s := New()
	for _, t := range ts.Tracks() {
		s.Put(t)
	}
	return s
}

// Put inserts or replaces a track. The track must be valid.
func (s *Store) Put(t *video.Track) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trackdb: %w", err)
	}
	s.byID[t.ID] = t
	s.dirty = true
	return nil
}

// Get returns the track with the given ID, or nil.
func (s *Store) Get(id video.TrackID) *video.Track { return s.byID[id] }

// Delete removes a track; deleting a missing ID is a no-op.
func (s *Store) Delete(id video.TrackID) {
	if _, ok := s.byID[id]; ok {
		delete(s.byID, id)
		s.dirty = true
	}
}

// Len returns the number of tracks stored.
func (s *Store) Len() int { return len(s.byID) }

// TrackSet returns the store contents as a TrackSet (shared tracks).
func (s *Store) TrackSet() *video.TrackSet {
	s.rebuild()
	return video.NewTrackSet(s.sorted)
}

// rebuild refreshes the interval index.
func (s *Store) rebuild() {
	if !s.dirty && s.sorted != nil {
		return
	}
	s.sorted = s.sorted[:0]
	for _, t := range s.byID {
		s.sorted = append(s.sorted, t)
	}
	sort.Slice(s.sorted, func(i, j int) bool {
		if s.sorted[i].StartFrame() != s.sorted[j].StartFrame() {
			return s.sorted[i].StartFrame() < s.sorted[j].StartFrame()
		}
		return s.sorted[i].ID < s.sorted[j].ID
	})
	n := len(s.sorted)
	s.segMax = make([]video.FrameIndex, 4*n+4)
	if n > 0 {
		s.buildSeg(1, 0, n-1)
	}
	s.dirty = false
}

func (s *Store) buildSeg(node, lo, hi int) video.FrameIndex {
	if lo == hi {
		s.segMax[node] = s.sorted[lo].EndFrame()
		return s.segMax[node]
	}
	mid := (lo + hi) / 2
	l := s.buildSeg(2*node, lo, mid)
	r := s.buildSeg(2*node+1, mid+1, hi)
	if l > r {
		s.segMax[node] = l
	} else {
		s.segMax[node] = r
	}
	return s.segMax[node]
}

// TracksInRange returns every track whose interval [Start, End]
// intersects [lo, hi], ordered by start frame then ID.
func (s *Store) TracksInRange(lo, hi video.FrameIndex) []*video.Track {
	if hi < lo {
		return nil
	}
	s.rebuild()
	n := len(s.sorted)
	if n == 0 {
		return nil
	}
	// Only tracks with Start <= hi can intersect; within that prefix,
	// collect tracks with End >= lo via the segment-max tree.
	cut := sort.Search(n, func(i int) bool { return s.sorted[i].StartFrame() > hi })
	if cut == 0 {
		return nil
	}
	var out []*video.Track
	s.collect(1, 0, n-1, cut-1, lo, &out)
	return out
}

// collect walks the segment tree over [0, limit], descending only into
// subtrees whose max end frame reaches minEnd.
func (s *Store) collect(node, lo, hi, limit int, minEnd video.FrameIndex, out *[]*video.Track) {
	if lo > limit || s.segMax[node] < minEnd {
		return
	}
	if lo == hi {
		*out = append(*out, s.sorted[lo])
		return
	}
	mid := (lo + hi) / 2
	s.collect(2*node, lo, mid, limit, minEnd, out)
	if mid+1 <= limit {
		s.collect(2*node+1, mid+1, hi, limit, minEnd, out)
	}
}

// PresentAt returns the tracks that have a box at exactly frame f,
// ordered by start frame then ID.
func (s *Store) PresentAt(f video.FrameIndex) []*video.Track {
	var out []*video.Track
	for _, t := range s.TracksInRange(f, f) {
		if hasBoxAt(t, f) {
			out = append(out, t)
		}
	}
	return out
}

func hasBoxAt(t *video.Track, f video.FrameIndex) bool {
	i := sort.Search(len(t.Boxes), func(i int) bool { return t.Boxes[i].Frame >= f })
	return i < len(t.Boxes) && t.Boxes[i].Frame == f
}

// ApplyMerge rewrites the store's identities according to the merger:
// every merged group collapses into one track under its canonical ID.
// The number of removed identities is returned.
func (s *Store) ApplyMerge(m *core.Merger) int {
	s.rebuild()
	before := s.Len()
	merged := m.Apply(video.NewTrackSet(s.sorted))
	s.byID = make(map[video.TrackID]*video.Track, merged.Len())
	for _, t := range merged.Tracks() {
		s.byID[t.ID] = t
	}
	s.dirty = true
	return before - s.Len()
}

// Stats summarises the store contents.
type Stats struct {
	Tracks     int
	Boxes      int
	FirstFrame video.FrameIndex
	LastFrame  video.FrameIndex
}

// Stats computes summary statistics. FirstFrame/LastFrame are zero when
// the store is empty.
func (s *Store) Stats() Stats {
	st := Stats{Tracks: s.Len()}
	first := true
	for _, t := range s.byID {
		st.Boxes += t.Len()
		if first || t.StartFrame() < st.FirstFrame {
			st.FirstFrame = t.StartFrame()
		}
		if first || t.EndFrame() > st.LastFrame {
			st.LastFrame = t.EndFrame()
		}
		first = false
	}
	return st
}
