package trackdb

import (
	"fmt"
	"sort"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/video"
)

// LiveView is the incrementally maintained, merge-aware track view the
// streaming query engine runs against: the materialized form of "the
// merged TrackSet so far" kept current by two kinds of input instead of
// batch recomputation —
//
//   - Extend(id, box): a raw tracker track grew by one box (fed per
//     committed window);
//   - ApplyEvent(ev): the merger performed one union (fed from the
//     ordered core.MergeEvent log).
//
// Per canonical identity it maintains the presence interval, the
// deduplicated per-frame box census, and the class tally. Frame
// deduplication reproduces core.Merger.Apply's rule exactly — when two
// member fragments claim the same frame, the lower-ID fragment's box
// wins — so every derived quantity (interval, box count, plurality
// class, region dwell) is bit-identical to what a batch Apply followed
// by a scan would produce. That equivalence is what lets the query
// operators answer incrementally yet match batch Answer exactly.
//
// A view can be bounded to a hot horizon. EvictBefore moves canonical
// tracks whose presence interval ended before a cutoff to the cold
// tier: compact summaries holding the aggregates every query operator
// consults (interval, box count, plurality class) plus the member set.
// Their cells — the O(frames) part — are dropped from memory and paged
// back from the ColdStore attached by AttachColdStore: reads that need
// cells (Dwell) page them in transiently, and an extension or merge
// event touching a cold group rehydrates it first, so answers never
// depend on the horizon. A view that never evicts is fully hot and
// needs no store.
//
// Mutations accumulate a changed/removed set drained by Flush, the delta
// feed the incremental query operators consume. LiveView is not safe for
// concurrent use.
type LiveView struct {
	canon  map[video.TrackID]video.TrackID
	tracks map[video.TrackID]*liveTrack // the hot tier
	cold   map[video.TrackID]*coldTrack // the cold tier
	// seq is the event-log cursor: the sequence number the next
	// ApplyEvent must carry.
	seq int

	ids   []video.TrackID // sorted cache of hot and cold canonical IDs
	idsOK bool

	dirty   map[video.TrackID]bool
	removed []video.TrackID

	store     ColdStore
	paged     map[video.TrackID]ViewTrack // cold tracks paged in for reads
	pageOrder []video.TrackID
	pageErr   error
	stats     TierStats
}

// liveTrack is the per-canonical-identity state.
type liveTrack struct {
	start, end video.FrameIndex
	members    []video.TrackID // raw member IDs, sorted ascending
	cells      map[video.FrameIndex]viewCell
	classes    map[video.ClassID]int
}

// viewCell is the winning box of one frame: the member that owns it, its
// class, and its center (all any query operator consumes of a box).
type viewCell struct {
	member video.TrackID
	class  video.ClassID
	cx, cy float64
}

// ColdStore is what a view pages evicted track state back in from — in
// production the session's histlog.Log, which reconstructs a canonical
// track's full cell set from sealed segments. The interface lives here
// so trackdb does not import the storage layer.
type ColdStore interface {
	// LoadColdTrack returns the full serialised state of the canonical
	// track whose complete raw-member set is members. The result must be
	// exactly the ViewTrack a never-evicting view would serialise for the
	// group — the view's answers depend on it.
	LoadColdTrack(canon video.TrackID, members []video.TrackID) (ViewTrack, error)
}

// coldTrack is the in-memory summary of an evicted canonical identity:
// the aggregates every query operator consults per track plus the
// member set needed to page the full state back in.
type coldTrack struct {
	start, end video.FrameIndex
	boxes      int
	class      video.ClassID
	members    []video.TrackID
}

// pagedCap bounds the transient full-cell page cache: at most this
// many cold tracks are held fully paged in at once, evicted FIFO.
const pagedCap = 8

// TierStats counts a view's structural traffic between its tiers, for
// the bounded-memory accounting the history benchmark gates on.
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

// NewLiveView returns an empty, fully hot view with its event cursor at
// 0 and no cold store.
func NewLiveView() *LiveView {
	return &LiveView{
		canon:  make(map[video.TrackID]video.TrackID),
		tracks: make(map[video.TrackID]*liveTrack),
		cold:   make(map[video.TrackID]*coldTrack),
		dirty:  make(map[video.TrackID]bool),
	}
}

// AttachColdStore makes store the view's cold tier: the source evicted
// tracks are paged back in from. A view that evicts without a store
// fails every later touch of a cold group.
func (v *LiveView) AttachColdStore(store ColdStore) { v.store = store }

// Extend folds one new box of raw track id into the view, under the
// track's current canonical identity (see ExtendCell).
func (v *LiveView) Extend(id video.TrackID, b video.BBox) error {
	center := b.Rect.Center()
	return v.ExtendCell(id, b.Frame, b.Class, center.X, center.Y)
}

// ExtendCell is Extend for callers that already hold the box reduced to
// the fields the view keeps — frame, class, and center. The history
// log's replay path (internal/histlog) feeds the view through it, which
// is why a journaled extension record is exactly these fields: identical
// input here means identical view state, the replay-equivalence
// invariant the history subsystem is built on. Re-feeding a box the view
// already holds is a harmless no-op, and a frame contested between
// member fragments keeps the lower-ID member's box (the batch Apply
// rule). An evicted target group is rehydrated first; the error reports
// a cold-store failure, with the view unmodified.
func (v *LiveView) ExtendCell(id video.TrackID, frame video.FrameIndex, class video.ClassID, cx, cy float64) error {
	c, ok := v.canon[id]
	if !ok {
		c = id
		v.canon[id] = id
	}
	if err := v.rehydrate(c); err != nil {
		return err
	}
	t := v.tracks[c]
	if t == nil {
		t = &liveTrack{
			start:   frame,
			end:     frame,
			members: []video.TrackID{c},
			cells:   make(map[video.FrameIndex]viewCell),
			classes: make(map[video.ClassID]int),
		}
		v.tracks[c] = t
		v.idsOK = false
	}
	if !t.put(frame, viewCell{member: id, class: class, cx: cx, cy: cy}) {
		return nil // the held box wins the frame; nothing changed
	}
	t.start, t.end = min(t.start, frame), max(t.end, frame)
	v.dirty[c] = true
	return nil
}

// put stores c as frame f's cell unless the box already there wins: of
// two members' boxes at one frame, the lower member's box wins, the
// rule core.Merger.Apply applies to full boxes. It keeps the class
// tally (not the interval) and reports whether the cell changed.
func (t *liveTrack) put(f video.FrameIndex, c viewCell) bool {
	if ex, held := t.cells[f]; held {
		if c.member >= ex.member {
			return false
		}
		t.classes[ex.class]--
		if t.classes[ex.class] == 0 {
			delete(t.classes, ex.class)
		}
	}
	t.cells[f] = c
	t.classes[c.class]++
	return true
}

// GroupCells folds one canonical group's cells, fed from any number of
// sources in any order, under the view's contested-frame rule (see
// ExtendCell): a cold store builds with it the ViewTrack a
// never-evicting view would hold for the group. The zero value is an
// empty group.
type GroupCells struct{ t liveTrack }

// Add folds one member's cell in.
func (g *GroupCells) Add(c ViewCell) {
	if g.t.cells == nil {
		g.t.cells = make(map[video.FrameIndex]viewCell)
		g.t.classes = make(map[video.ClassID]int)
	}
	g.t.put(c.Frame, viewCell{member: c.Member, class: c.Class, cx: c.CX, cy: c.CY})
}

// ViewTrack returns the group as canonical track canon with raw members
// members (copied), its cells sorted by frame.
func (g *GroupCells) ViewTrack(canon video.TrackID, members []video.TrackID) ViewTrack {
	return ViewTrack{ID: canon, Members: append([]video.TrackID(nil), members...), Cells: sortedCells(g.t.cells)}
}

// ApplyEvent folds one merger union into the view: the losing group's
// frames move under the surviving canonical (lower-ID member winning
// contested frames), the losing canonical is retired into the removed
// set, and the event cursor advances. Events must arrive in log order —
// ev.Seq must equal Seq() — and both source groups must already be
// present (extensions are fed before events each window, so any track a
// union touches has boxes in view). Evicted source groups are
// rehydrated first. Violations and cold-store failures report an error
// with the view's answers unmodified.
func (v *LiveView) ApplyEvent(ev core.MergeEvent) error {
	if err := ev.Validate(); err != nil {
		return fmt.Errorf("trackdb: %w", err)
	}
	if ev.Seq != v.seq {
		return fmt.Errorf("trackdb: view event cursor is %d, got event seq %d", v.seq, ev.Seq)
	}
	loseID := ev.FromA
	if loseID == ev.Canon {
		loseID = ev.FromB
	}
	if err := v.rehydrate(ev.Canon); err != nil {
		return err
	}
	if err := v.rehydrate(loseID); err != nil {
		return err
	}
	keep, lose := v.tracks[ev.Canon], v.tracks[loseID]
	if keep == nil || lose == nil {
		return fmt.Errorf("trackdb: merge event %d joins groups %d and %d, but the view has not seen both", ev.Seq, ev.Canon, loseID)
	}
	for f, cl := range lose.cells {
		keep.put(f, cl)
	}
	if lose.start < keep.start {
		keep.start = lose.start
	}
	if lose.end > keep.end {
		keep.end = lose.end
	}
	keep.members = mergeSortedIDs(keep.members, lose.members)
	for _, m := range lose.members {
		v.canon[m] = ev.Canon
	}
	delete(v.tracks, loseID)
	delete(v.dirty, loseID)
	v.removed = append(v.removed, loseID)
	v.dirty[ev.Canon] = true
	v.idsOK = false
	v.seq++
	return nil
}

// ApplyEvents folds a log suffix in order, stopping at the first error.
func (v *LiveView) ApplyEvents(events []core.MergeEvent) error {
	for _, ev := range events {
		if err := v.ApplyEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the accumulated delta feed: the canonical IDs whose state
// changed since the last Flush and the canonical IDs retired by merges,
// both sorted ascending. A retired ID never appears in changed. Cold
// tracks never appear: eviction requires drained deltas, and any change
// to a cold group rehydrates it first.
func (v *LiveView) Flush() (changed, removed []video.TrackID) {
	for id := range v.dirty {
		changed = append(changed, id)
	}
	video.SortTrackIDs(changed)
	removed = v.removed
	video.SortTrackIDs(removed)
	v.dirty = make(map[video.TrackID]bool)
	v.removed = nil
	return changed, removed
}

// Seq returns the view's event-log cursor: how many merge events it has
// folded, and the sequence number the next ApplyEvent must carry.
func (v *LiveView) Seq() int { return v.seq }

// Len returns the number of live canonical identities, hot and cold.
func (v *LiveView) Len() int { return len(v.tracks) + len(v.cold) }

// Canonical returns the canonical identity raw track id currently maps
// to (id itself when the view has never seen it merge). The mapping
// survives eviction.
func (v *LiveView) Canonical(id video.TrackID) video.TrackID {
	if c, ok := v.canon[id]; ok {
		return c
	}
	return id
}

// IDs returns the live canonical identities of both tiers, sorted
// ascending. The returned slice is a cache; callers must not modify it.
func (v *LiveView) IDs() []video.TrackID {
	if !v.idsOK {
		v.ids = v.ids[:0]
		for id := range v.tracks {
			v.ids = append(v.ids, id)
		}
		for id := range v.cold {
			v.ids = append(v.ids, id)
		}
		video.SortTrackIDs(v.ids)
		v.idsOK = true
	}
	return v.ids
}

// Interval returns the presence interval [start, end] of canonical id,
// with ok false when the view holds no such identity.
func (v *LiveView) Interval(id video.TrackID) (start, end video.FrameIndex, ok bool) {
	if t := v.tracks[id]; t != nil {
		return t.start, t.end, true
	}
	if ct := v.cold[id]; ct != nil {
		return ct.start, ct.end, true
	}
	return 0, 0, false
}

// Boxes returns the deduplicated box count of canonical id (0 when the
// identity is not live).
func (v *LiveView) Boxes(id video.TrackID) int {
	if t := v.tracks[id]; t != nil {
		return len(t.cells)
	}
	if ct := v.cold[id]; ct != nil {
		return ct.boxes
	}
	return 0
}

// Class returns the plurality class of canonical id's deduplicated boxes
// (ties to the smaller class ID; 0 when the identity is not live) —
// exactly video.Track.Class over the batch-merged track.
func (v *LiveView) Class(id video.TrackID) video.ClassID {
	if t := v.tracks[id]; t != nil {
		return plurality(t.classes)
	}
	if ct := v.cold[id]; ct != nil {
		return ct.class
	}
	return 0
}

// plurality returns the most frequent class of a tally, ties to the
// smaller class ID, 0 for an empty tally.
func plurality(classes map[video.ClassID]int) video.ClassID {
	best, bestN := video.ClassID(0), -1
	for c, n := range classes {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	if bestN < 0 {
		return 0
	}
	return best
}

// Dwell returns how many of canonical id's deduplicated boxes have their
// center inside r — the RegionQuery predicate evaluated on view state.
// A cold track's cells are paged in transiently (a FIFO cache of
// pagedCap tracks). A failed page answers 0 and is kept for PageErr.
func (v *LiveView) Dwell(id video.TrackID, r geom.Rect) int {
	n := 0
	if t := v.tracks[id]; t != nil {
		for _, cl := range t.cells {
			if r.Contains(geom.Point{X: cl.cx, Y: cl.cy}) {
				n++
			}
		}
		return n
	}
	ct := v.cold[id]
	if ct == nil {
		return 0
	}
	vt, err := v.page(id, ct)
	if err != nil {
		if v.pageErr == nil {
			v.pageErr = err
		}
		return 0
	}
	for _, c := range vt.Cells {
		if r.Contains(geom.Point{X: c.CX, Y: c.CY}) {
			n++
		}
	}
	return n
}

// PageErr returns the first cold-store failure a read hit, or nil.
// Reads answer through query.TrackView, which has no error path, so the
// view's owner checks here after running operators over it.
func (v *LiveView) PageErr() error { return v.pageErr }

// Stats returns the lifetime tiering counters.
func (v *LiveView) Stats() TierStats { return v.stats }

// HotTracks returns how many canonical identities are fully in memory.
func (v *LiveView) HotTracks() int { return len(v.tracks) }

// ColdTracks returns how many canonical identities live as summaries.
func (v *LiveView) ColdTracks() int { return len(v.cold) }

// IsHot reports whether canonical id currently lives fully in memory.
func (v *LiveView) IsHot(id video.TrackID) bool { return v.tracks[id] != nil }

// HotCells returns the total number of frame cells held in memory
// across hot tracks — the quantity the hot horizon bounds, and the one
// the history benchmark's flat-memory gate measures.
func (v *LiveView) HotCells() int {
	n := 0
	for _, t := range v.tracks {
		n += len(t.cells)
	}
	return n
}

// EvictBefore moves every hot canonical track whose presence interval
// ended before cutoff to the cold tier, keeping only its summary in
// memory. Tracks with undrained Flush deltas are never evicted (the
// ingest layer evicts right after Flush, so in practice nothing is
// skipped). Which tracks move depends only on the view state, so the
// hot/cold partition is deterministic. It returns how many tracks
// moved.
func (v *LiveView) EvictBefore(cutoff video.FrameIndex) int {
	moved := 0
	for id, t := range v.tracks {
		if t.end >= cutoff || v.dirty[id] {
			continue
		}
		v.cold[id] = &coldTrack{
			start:   t.start,
			end:     t.end,
			boxes:   len(t.cells),
			class:   plurality(t.classes),
			members: t.members,
		}
		delete(v.tracks, id)
		moved++
	}
	v.stats.Evicted += moved
	return moved
}

// rehydrate pulls one cold canonical track fully back into the hot
// tier; a hot or unknown id is left alone. The canon mappings of its
// members were never dropped, so only the track body is rebuilt.
func (v *LiveView) rehydrate(id video.TrackID) error {
	ct := v.cold[id]
	if ct == nil {
		return nil
	}
	vt, err := v.load(id, ct)
	if err != nil {
		return err
	}
	t, err := loadTrack(ViewTrack{ID: id, Members: ct.members, Cells: vt.Cells})
	if err != nil {
		return err
	}
	v.tracks[id] = t
	delete(v.cold, id)
	delete(v.paged, id)
	v.stats.Rehydrated++
	return nil
}

// load reads one cold track's full state from the cold store.
func (v *LiveView) load(id video.TrackID, ct *coldTrack) (ViewTrack, error) {
	if v.store == nil {
		return ViewTrack{}, fmt.Errorf("trackdb: track %d is cold and the view has no cold store", id)
	}
	return v.store.LoadColdTrack(id, ct.members)
}

// page returns one cold track's full state for a read, from the page
// cache or the cold store, caching it FIFO past pagedCap.
func (v *LiveView) page(id video.TrackID, ct *coldTrack) (ViewTrack, error) {
	if vt, ok := v.paged[id]; ok {
		return vt, nil
	}
	vt, err := v.load(id, ct)
	if err != nil {
		return ViewTrack{}, err
	}
	if v.paged == nil {
		v.paged = make(map[video.TrackID]ViewTrack, pagedCap)
	}
	for len(v.pageOrder) >= pagedCap {
		delete(v.paged, v.pageOrder[0])
		v.pageOrder = v.pageOrder[1:]
	}
	v.paged[id] = vt
	v.pageOrder = append(v.pageOrder, id)
	v.stats.PageLoads++
	return vt, nil
}

// mergeSortedIDs merges two ascending ID slices into one.
func mergeSortedIDs(a, b []video.TrackID) []video.TrackID {
	out := make([]video.TrackID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ViewCell is one serialised frame cell of a live-view track.
type ViewCell struct {
	Frame  video.FrameIndex `json:"frame"`
	Member video.TrackID    `json:"member"`
	Class  video.ClassID    `json:"class,omitempty"`
	CX     float64          `json:"cx"`
	CY     float64          `json:"cy"`
}

// ViewTrack is one serialised canonical identity: its raw members and
// its deduplicated frame cells. Interval, box count, and class tally are
// recomputed from the cells on restore.
type ViewTrack struct {
	ID      video.TrackID   `json:"id"`
	Members []video.TrackID `json:"members"`
	Cells   []ViewCell      `json:"cells"`
}

// ViewState is the serialisable form of a LiveView: the event cursor and
// the canonical tracks, each deterministically ordered (tracks by ID,
// cells by frame, members ascending). Pending Flush deltas are not part
// of the state — snapshot a view only after draining it, which the
// ingest layer does every window.
type ViewState struct {
	Seq    int         `json:"seq"`
	Tracks []ViewTrack `json:"tracks,omitempty"`
}

// State snapshots the view's hot tier. Cold tracks are not part of it:
// their state lives in the cold store, which for a history session is
// also what the view is rebuilt from.
func (v *LiveView) State() ViewState {
	st := ViewState{Seq: v.seq}
	for _, id := range v.IDs() {
		t := v.tracks[id]
		if t == nil {
			continue
		}
		st.Tracks = append(st.Tracks, ViewTrack{ID: id, Members: append([]video.TrackID(nil), t.members...), Cells: sortedCells(t.cells)})
	}
	return st
}

// sortedCells returns cells serialised and sorted by frame.
func sortedCells(cells map[video.FrameIndex]viewCell) []ViewCell {
	out := make([]ViewCell, 0, len(cells))
	for f, cl := range cells {
		out = append(out, ViewCell{Frame: f, Member: cl.member, Class: cl.class, CX: cl.cx, CY: cl.cy})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frame < out[j].Frame })
	return out
}

// RestoreView reconstructs a fully hot LiveView from a snapshot taken by
// State. A snapshot that violates the view invariants — a non-contiguous
// event cursor is unverifiable here, but a negative one, a duplicate
// track, a member claimed by two groups, or any track loadTrack rejects
// — is rejected wholesale.
func RestoreView(st ViewState) (*LiveView, error) {
	if st.Seq < 0 {
		return nil, fmt.Errorf("trackdb: view snapshot has negative event cursor %d", st.Seq)
	}
	v := NewLiveView()
	v.seq = st.Seq
	for _, vt := range st.Tracks {
		if _, dup := v.tracks[vt.ID]; dup {
			return nil, fmt.Errorf("trackdb: view snapshot has duplicate track %d", vt.ID)
		}
		t, err := loadTrack(vt)
		if err != nil {
			return nil, err
		}
		for _, m := range vt.Members {
			if _, claimed := v.canon[m]; claimed {
				return nil, fmt.Errorf("trackdb: view snapshot member %d appears in two groups", m)
			}
			v.canon[m] = vt.ID
		}
		v.tracks[vt.ID] = t
	}
	return v, nil
}

// loadTrack converts one serialised track into the hot representation —
// for RestoreView and for rehydration from the cold store — rejecting
// no or unsorted or duplicate members, a canonical that is not its
// group's smallest member, no or unsorted cells, and a cell owned by a
// non-member.
func loadTrack(vt ViewTrack) (*liveTrack, error) {
	if len(vt.Members) == 0 || vt.Members[0] != vt.ID {
		return nil, fmt.Errorf("trackdb: view track %d is not its group's smallest member (members %v)", vt.ID, vt.Members)
	}
	members := make(map[video.TrackID]bool, len(vt.Members))
	for i, m := range vt.Members {
		if i > 0 && m <= vt.Members[i-1] {
			return nil, fmt.Errorf("trackdb: view track %d members not strictly ascending at %d", vt.ID, m)
		}
		members[m] = true
	}
	if len(vt.Cells) == 0 {
		return nil, fmt.Errorf("trackdb: view track %d has no cells", vt.ID)
	}
	t := &liveTrack{
		start:   vt.Cells[0].Frame,
		end:     vt.Cells[len(vt.Cells)-1].Frame,
		members: append([]video.TrackID(nil), vt.Members...),
		cells:   make(map[video.FrameIndex]viewCell, len(vt.Cells)),
		classes: make(map[video.ClassID]int),
	}
	for i, c := range vt.Cells {
		if i > 0 && c.Frame <= vt.Cells[i-1].Frame {
			return nil, fmt.Errorf("trackdb: view track %d cells not strictly ascending at frame %d", vt.ID, c.Frame)
		}
		if !members[c.Member] {
			return nil, fmt.Errorf("trackdb: view track %d cell at frame %d owned by non-member %d", vt.ID, c.Frame, c.Member)
		}
		t.cells[c.Frame] = viewCell{member: c.Member, class: c.Class, cx: c.CX, cy: c.CY}
		t.classes[c.Class]++
	}
	return t, nil
}
