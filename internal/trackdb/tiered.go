package trackdb

import (
	"fmt"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/video"
)

// ColdStore is what a TieredView pages evicted track state back in
// from — in production the session's histlog.Log, which reconstructs a
// canonical track's full cell set from sealed segments. The interface
// lives here so trackdb does not import the storage layer.
type ColdStore interface {
	// LoadColdTrack returns the full serialised state of the canonical
	// track whose complete raw-member set is members. The result must be
	// exactly the ViewTrack a never-evicting LiveView would serialise
	// for the group — the tiered view's answers depend on it.
	LoadColdTrack(canon video.TrackID, members []video.TrackID) (ViewTrack, error)
}

// coldTrack is the in-memory summary of an evicted canonical identity:
// the aggregates every query operator consults per track (interval,
// deduplicated box count, plurality class) plus the member set needed
// to page the full state back in. Cells — the O(frames) part — live
// only on disk.
type coldTrack struct {
	start, end video.FrameIndex
	boxes      int
	class      video.ClassID
	members    []video.TrackID
}

// pagedCap bounds the transient full-cell page cache: at most this
// many cold tracks are held fully hydrated at once, evicted FIFO.
const pagedCap = 8

// TieredView is a LiveView bounded to a hot horizon: canonical tracks
// whose presence interval ended before the moving cutoff are evicted
// to compact cold summaries (cells dropped from memory, recoverable
// from the ColdStore), while recent tracks stay fully hot. It
// implements the same feed (Extend/ApplyEvent/Flush) and read
// (query.TrackView) surfaces as LiveView and answers identically —
// cold summaries carry exactly the aggregates the operators consult,
// and reads that need cells (Dwell) page them back in transiently.
//
// A merge event or extension touching an evicted group rehydrates it
// first, so correctness never depends on the horizon; the horizon only
// controls how often that (disk-reading) slow path runs. Sessions keep
// it at a couple of window lengths, where merges only ever touch
// still-hot groups and rehydration is a cold-start corner case. With
// no cold store and no EvictBefore call it is just its hot LiveView,
// which is how a plain ingest session uses it.
//
// TieredView is not safe for concurrent use.
type TieredView struct {
	hot   *LiveView
	cold  map[video.TrackID]*coldTrack
	store ColdStore

	ids   []video.TrackID // sorted cache of hot+cold canonical IDs
	idsOK bool

	paged     map[video.TrackID]ViewTrack
	pageOrder []video.TrackID

	stats TierStats
}

// TierStats counts the tiered view's structural traffic, for the
// bounded-memory accounting the history benchmark gates on.
type TierStats struct {
	// Evicted counts canonical tracks moved hot → cold over the view's
	// lifetime; Rehydrated counts cold tracks pulled fully back into the
	// hot tier by a late-arriving extension or merge event.
	Evicted    int
	Rehydrated int
	// PageLoads counts transient full-cell loads served for reads
	// (Dwell) without rehydration.
	PageLoads int
}

// NewTieredView wraps an existing hot view (freshly built or replayed)
// with tiering against store.
func NewTieredView(hot *LiveView, store ColdStore) *TieredView {
	if hot == nil {
		hot = NewLiveView()
	}
	return &TieredView{hot: hot, cold: make(map[video.TrackID]*coldTrack), store: store}
}

// Hot returns the wrapped hot view. Callers must not mutate it behind
// the tiered view's back; the accessor exists for state snapshots and
// tests.
func (tv *TieredView) Hot() *LiveView { return tv.hot }

// Stats returns the lifetime tiering counters.
func (tv *TieredView) Stats() TierStats { return tv.stats }

// HotTracks returns how many canonical identities are fully in memory.
func (tv *TieredView) HotTracks() int { return tv.hot.Len() }

// ColdTracks returns how many canonical identities live as summaries.
func (tv *TieredView) ColdTracks() int { return len(tv.cold) }

// IsHot reports whether canonical id currently lives fully in memory.
func (tv *TieredView) IsHot(id video.TrackID) bool { return tv.hot.tracks[id] != nil }

// HotCells returns the total number of frame cells held in memory
// across hot tracks — the quantity the hot horizon bounds, and the one
// the history benchmark's flat-memory gate measures.
func (tv *TieredView) HotCells() int {
	n := 0
	for _, t := range tv.hot.tracks {
		n += len(t.cells)
	}
	return n
}

// EvictBefore moves every hot canonical track whose presence interval
// ended before cutoff to the cold tier, keeping only its summary in
// memory. Tracks with undrained Flush deltas are never evicted (the
// ingest layer evicts right after Flush, so in practice nothing is
// skipped). Iteration is in sorted ID order, so eviction — and with it
// the hot/cold partition — is deterministic. It returns how many
// tracks moved.
func (tv *TieredView) EvictBefore(cutoff video.FrameIndex) int {
	moved := 0
	for _, id := range tv.hot.IDs() {
		t := tv.hot.tracks[id]
		if t.end >= cutoff || tv.hot.dirty[id] {
			continue
		}
		tv.cold[id] = &coldTrack{
			start:   t.start,
			end:     t.end,
			boxes:   len(t.cells),
			class:   tv.hot.Class(id),
			members: t.members,
		}
		delete(tv.hot.tracks, id)
		moved++
	}
	if moved > 0 {
		tv.hot.idsOK = false
		tv.idsOK = false
		tv.stats.Evicted += moved
	}
	return moved
}

// rehydrate pulls one cold canonical track fully back into the hot
// tier. The canon mappings for its members were never dropped, so only
// the track body is rebuilt.
func (tv *TieredView) rehydrate(id video.TrackID) error {
	ct := tv.cold[id]
	if ct == nil {
		return nil
	}
	if tv.store == nil {
		return fmt.Errorf("trackdb: track %d is cold and the tiered view has no cold store", id)
	}
	vt, err := tv.store.LoadColdTrack(id, ct.members)
	if err != nil {
		return err
	}
	t, err := buildLiveTrack(vt, ct.members)
	if err != nil {
		return err
	}
	tv.hot.tracks[id] = t
	tv.hot.idsOK = false
	delete(tv.cold, id)
	delete(tv.paged, id)
	tv.idsOK = false
	tv.stats.Rehydrated++
	return nil
}

// buildLiveTrack converts a paged ViewTrack into the hot
// representation, validating what the cold store returned.
func buildLiveTrack(vt ViewTrack, members []video.TrackID) (*liveTrack, error) {
	if len(vt.Cells) == 0 {
		return nil, fmt.Errorf("trackdb: cold store returned track %d with no cells", vt.ID)
	}
	t := &liveTrack{
		start:   vt.Cells[0].Frame,
		end:     vt.Cells[len(vt.Cells)-1].Frame,
		members: append([]video.TrackID(nil), members...),
		cells:   make(map[video.FrameIndex]viewCell, len(vt.Cells)),
		classes: make(map[video.ClassID]int),
	}
	for i, c := range vt.Cells {
		if i > 0 && c.Frame <= vt.Cells[i-1].Frame {
			return nil, fmt.Errorf("trackdb: cold store returned track %d with unsorted cells", vt.ID)
		}
		t.cells[c.Frame] = viewCell{member: c.Member, class: c.Class, cx: c.CX, cy: c.CY}
		t.classes[c.Class]++
	}
	return t, nil
}

// ExtendCell folds one new box, reduced to the fields the view keeps
// (see LiveView.ExtendCell), rehydrating the target group first if it
// was evicted. It reports any cold-store failure; extensions of hot
// groups cannot fail.
func (tv *TieredView) ExtendCell(id video.TrackID, frame video.FrameIndex, class video.ClassID, cx, cy float64) error {
	c := tv.hot.Canonical(id)
	if err := tv.rehydrate(c); err != nil {
		return err
	}
	before := tv.hot.Len()
	tv.hot.ExtendCell(id, frame, class, cx, cy)
	if tv.hot.Len() != before {
		tv.idsOK = false
	}
	return nil
}

// ApplyEvent folds one merger union, rehydrating either side first if
// it was evicted.
func (tv *TieredView) ApplyEvent(ev core.MergeEvent) error {
	if err := ev.Validate(); err != nil {
		return fmt.Errorf("trackdb: %w", err)
	}
	loseID := ev.FromA
	if loseID == ev.Canon {
		loseID = ev.FromB
	}
	if err := tv.rehydrate(ev.Canon); err != nil {
		return err
	}
	if err := tv.rehydrate(loseID); err != nil {
		return err
	}
	if err := tv.hot.ApplyEvent(ev); err != nil {
		return err
	}
	tv.idsOK = false
	return nil
}

// ApplyEvents folds a log suffix in order, stopping at the first error.
func (tv *TieredView) ApplyEvents(events []core.MergeEvent) error {
	for _, ev := range events {
		if err := tv.ApplyEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the hot view's delta feed. Cold tracks never appear:
// eviction requires drained deltas, and any change to a cold group
// rehydrates it first.
func (tv *TieredView) Flush() (changed, removed []video.TrackID) { return tv.hot.Flush() }

// Seq returns the event-log cursor.
func (tv *TieredView) Seq() int { return tv.hot.Seq() }

// Len returns the number of live canonical identities across tiers.
func (tv *TieredView) Len() int { return tv.hot.Len() + len(tv.cold) }

// Canonical returns the canonical identity raw track id maps to; the
// mapping survives eviction.
func (tv *TieredView) Canonical(id video.TrackID) video.TrackID { return tv.hot.Canonical(id) }

// IDs returns the live canonical identities across both tiers, sorted
// ascending. The returned slice is a cache; callers must not modify it.
func (tv *TieredView) IDs() []video.TrackID {
	if !tv.idsOK {
		tv.ids = tv.ids[:0]
		tv.ids = append(tv.ids, tv.hot.IDs()...)
		for id := range tv.cold {
			tv.ids = append(tv.ids, id)
		}
		video.SortTrackIDs(tv.ids)
		tv.idsOK = true
	}
	return tv.ids
}

// Interval returns the presence interval of canonical id from
// whichever tier holds it.
func (tv *TieredView) Interval(id video.TrackID) (start, end video.FrameIndex, ok bool) {
	if s, e, ok := tv.hot.Interval(id); ok {
		return s, e, true
	}
	if ct := tv.cold[id]; ct != nil {
		return ct.start, ct.end, true
	}
	return 0, 0, false
}

// Boxes returns the deduplicated box count of canonical id.
func (tv *TieredView) Boxes(id video.TrackID) int {
	if t := tv.hot.tracks[id]; t != nil {
		return len(t.cells)
	}
	if ct := tv.cold[id]; ct != nil {
		return ct.boxes
	}
	return 0
}

// Class returns the plurality class of canonical id.
func (tv *TieredView) Class(id video.TrackID) video.ClassID {
	if t := tv.hot.tracks[id]; t != nil {
		return tv.hot.Class(id)
	}
	if ct := tv.cold[id]; ct != nil {
		return ct.class
	}
	return 0
}

// Dwell returns how many of canonical id's deduplicated boxes have
// their center inside r. For cold tracks the full cell set is paged in
// transiently (bounded FIFO cache of pagedCap tracks); a cold-store
// failure answers 0, matching an unknown identity — callers needing
// the error distinction should rehydrate explicitly.
func (tv *TieredView) Dwell(id video.TrackID, r geom.Rect) int {
	if t := tv.hot.tracks[id]; t != nil {
		return tv.hot.Dwell(id, r)
	}
	ct := tv.cold[id]
	if ct == nil {
		return 0
	}
	vt, ok := tv.paged[id]
	if !ok {
		if tv.store == nil {
			return 0
		}
		loaded, err := tv.store.LoadColdTrack(id, ct.members)
		if err != nil {
			return 0
		}
		vt = loaded
		tv.pageIn(id, vt)
	}
	n := 0
	for _, c := range vt.Cells {
		if r.Contains(geom.Point{X: c.CX, Y: c.CY}) {
			n++
		}
	}
	return n
}

// pageIn caches one paged track, evicting FIFO past pagedCap.
func (tv *TieredView) pageIn(id video.TrackID, vt ViewTrack) {
	if tv.paged == nil {
		tv.paged = make(map[video.TrackID]ViewTrack, pagedCap)
	}
	for len(tv.pageOrder) >= pagedCap {
		delete(tv.paged, tv.pageOrder[0])
		tv.pageOrder = tv.pageOrder[1:]
	}
	tv.paged[id] = vt
	tv.pageOrder = append(tv.pageOrder, id)
	tv.stats.PageLoads++
}
