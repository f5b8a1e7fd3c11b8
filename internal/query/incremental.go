package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/video"
)

// TrackView is the read surface an incremental operator evaluates
// against: the live merged-track state, maintained elsewhere (the
// trackdb live view) and advanced window by window. All methods are
// keyed by canonical track ID and must reflect the merged,
// frame-deduplicated track exactly as batch merging would produce it —
// that contract is what makes incremental results bit-identical to
// batch Answer over the merged TrackSet.
type TrackView interface {
	// IDs returns the live canonical track IDs, sorted ascending. The
	// slice must be treated as read-only.
	IDs() []video.TrackID
	// Interval returns the presence interval [start, end] of id, with ok
	// false when id is not a live canonical identity.
	Interval(id video.TrackID) (start, end video.FrameIndex, ok bool)
	// Boxes returns id's deduplicated box count (0 when not live).
	Boxes(id video.TrackID) int
	// Class returns id's plurality box class, ties to the smaller class
	// ID (0 when not live) — video.Track.Class over the merged track.
	Class(id video.TrackID) video.ClassID
	// Dwell returns how many of id's deduplicated boxes have centers
	// inside r (0 when not live).
	Dwell(id video.TrackID, r geom.Rect) int
}

// DeltaKind says whether a Delta adds a result row or withdraws one.
type DeltaKind int

const (
	// Assert introduces a newly qualifying result row.
	Assert DeltaKind = iota
	// Retract withdraws a previously asserted row — the merge-coalescing
	// case: two identities counted separately collapse into one, or a
	// row's members stop satisfying the predicate under merged state.
	Retract
)

// String names the kind for logs and test output.
func (k DeltaKind) String() string {
	switch k {
	case Assert:
		return "assert"
	case Retract:
		return "retract"
	default:
		return fmt.Sprintf("DeltaKind(%d)", int(k))
	}
}

// Delta is one incremental output row change. Row is the result row
// itself: a single track ID for Count/Region answers, an ordered
// (first, second) pair for Precedes, a sorted group for CoOccur. Within
// one Apply batch, retractions precede assertions and each run is
// sorted, so delta streams are deterministic and foldable: replaying
// every delta from an empty set reproduces Results exactly.
type Delta struct {
	Kind DeltaKind       `json:"kind"`
	Row  []video.TrackID `json:"row"`
}

// OpStats counts an operator's cumulative work: predicate evaluations
// performed (Scanned) and rows asserted/retracted. The counters are
// deterministic functions of the input stream, which is what the query
// benchmark compares against batch recomputation cost.
type OpStats struct {
	Scanned   int `json:"scanned"`
	Asserted  int `json:"asserted"`
	Retracted int `json:"retracted"`
}

// OperatorState is the serialisable form of an incremental operator:
// the operator kind, a parameter echo (so restoring into a differently
// configured operator fails loudly instead of silently diverging), the
// current result set, and the work counters.
type OperatorState struct {
	Kind   string            `json:"kind"`
	Params string            `json:"params"`
	Result [][]video.TrackID `json:"result,omitempty"`
	Stats  OpStats           `json:"stats"`
}

// Incremental is the shared operator interface of the streaming query
// engine. An operator holds its current result set and, per committed
// window, folds the view's changed/removed canonical IDs into it,
// emitting the row-level deltas. The batch Answer methods remain the
// specification: after any sequence of Apply calls, Results must equal
// the batch answer over the batch-merged TrackSet the view mirrors.
type Incremental interface {
	// Kind names the operator type ("count", "region", "cooccur",
	// "precedes") — the discriminator checked on state restore.
	Kind() string
	// Apply folds one view update (changed and removed canonical IDs,
	// both sorted ascending) and returns the resulting deltas:
	// retractions first, then assertions, each run sorted by row.
	Apply(v TrackView, changed, removed []video.TrackID) []Delta
	// Results returns the current result rows, sorted — the same order
	// the batch Answer produces.
	Results() [][]video.TrackID
	// State snapshots the operator for checkpointing.
	State() OperatorState
	// RestoreState replaces the operator's state with a snapshot taken
	// from an identically configured operator, rejecting kind or
	// parameter mismatches and malformed rows.
	RestoreState(st OperatorState) error
	// Stats returns the cumulative work counters.
	Stats() OpStats
}

// spanOf returns id's presence span in frames (ok false when not live).
func spanOf(v TrackView, id video.TrackID) (int, bool) {
	s, e, ok := v.Interval(id)
	if !ok {
		return 0, false
	}
	return int(e-s) + 1, true
}

// emit finalises one Apply batch: counts the work, sorts each run, and
// packs retractions before assertions.
func emit(stats *OpStats, retracts, asserts [][]video.TrackID) []Delta {
	stats.Retracted += len(retracts)
	stats.Asserted += len(asserts)
	sort.Slice(retracts, func(i, j int) bool { return lessGroup(retracts[i], retracts[j]) })
	sort.Slice(asserts, func(i, j int) bool { return lessGroup(asserts[i], asserts[j]) })
	if len(retracts)+len(asserts) == 0 {
		return nil
	}
	out := make([]Delta, 0, len(retracts)+len(asserts))
	for _, r := range retracts {
		out = append(out, Delta{Kind: Retract, Row: r})
	}
	for _, a := range asserts {
		out = append(out, Delta{Kind: Assert, Row: a})
	}
	return out
}

// checkState verifies a snapshot's kind and parameter echo against the
// restoring operator's own.
func checkState(st OperatorState, kind, params string) error {
	if st.Kind != kind {
		return fmt.Errorf("query: restoring %q operator from %q state", kind, st.Kind)
	}
	if st.Params != params {
		return fmt.Errorf("query: %s operator state was taken with params %s, operator has %s", kind, st.Params, params)
	}
	if st.Stats.Scanned < 0 || st.Stats.Asserted < 0 || st.Stats.Retracted < 0 {
		return fmt.Errorf("query: %s operator state has negative work counters", kind)
	}
	return nil
}

// idSet is the operator IncCount and IncRegion share: the set of
// canonical identities that satisfy a per-identity predicate, re-checked
// for every changed identity and dropped for every removed one.
type idSet struct {
	kind   string
	params string // the query's parameter echo
	qual   func(v TrackView, id video.TrackID) bool
	have   map[video.TrackID]bool
	stats  OpStats
}

func newIDSet(kind string, q any, qual func(TrackView, video.TrackID) bool) idSet {
	return idSet{kind: kind, params: fmt.Sprintf("%+v", q), qual: qual, have: make(map[video.TrackID]bool)}
}

// Kind implements Incremental.
func (o *idSet) Kind() string { return o.kind }

// Apply implements Incremental.
func (o *idSet) Apply(v TrackView, changed, removed []video.TrackID) []Delta {
	var retracts, asserts [][]video.TrackID
	for _, id := range removed {
		if o.have[id] {
			delete(o.have, id)
			retracts = append(retracts, []video.TrackID{id})
		}
	}
	for _, id := range changed {
		o.stats.Scanned++
		qual := o.qual(v, id)
		switch {
		case qual && !o.have[id]:
			o.have[id] = true
			asserts = append(asserts, []video.TrackID{id})
		case !qual && o.have[id]:
			delete(o.have, id)
			retracts = append(retracts, []video.TrackID{id})
		}
	}
	return emit(&o.stats, retracts, asserts)
}

// Count returns the current answer cardinality without allocating.
func (o *idSet) Count() int { return len(o.have) }

// Answer returns the current answer IDs, sorted — the incremental
// counterpart of the query's batch Answer.
func (o *idSet) Answer() []video.TrackID {
	ids := make([]video.TrackID, 0, len(o.have))
	for id := range o.have {
		ids = append(ids, id)
	}
	video.SortTrackIDs(ids)
	return ids
}

// Results implements Incremental: the answer as sorted single-ID rows.
func (o *idSet) Results() [][]video.TrackID {
	ids := o.Answer()
	out := make([][]video.TrackID, len(ids))
	for i := range ids {
		out[i] = ids[i : i+1 : i+1]
	}
	return out
}

// Stats implements Incremental.
func (o *idSet) Stats() OpStats { return o.stats }

// State implements Incremental.
func (o *idSet) State() OperatorState {
	return OperatorState{Kind: o.kind, Params: o.params, Result: o.Results(), Stats: o.stats}
}

// RestoreState implements Incremental.
func (o *idSet) RestoreState(st OperatorState) error {
	if err := checkState(st, o.kind, o.params); err != nil {
		return err
	}
	have := make(map[video.TrackID]bool, len(st.Result))
	for _, row := range st.Result {
		if len(row) != 1 {
			return fmt.Errorf("query: %s state row has %d ids, want 1", o.kind, len(row))
		}
		if have[row[0]] {
			return fmt.Errorf("query: %s state has duplicate id %d", o.kind, row[0])
		}
		have[row[0]] = true
	}
	o.have, o.stats = have, st.Stats
	return nil
}

// IncCount is the incremental CountQuery operator ("count"): it
// maintains the set of canonical identities whose presence span reaches
// MinFrames. Spans only grow under extensions and merges, so a counted
// identity is only ever retracted when a merge coalesces it into
// another (the view removes it); the symmetric re-check keeps the
// operator honest anyway.
type IncCount struct{ idSet }

// NewIncCount returns an empty incremental operator for q.
func NewIncCount(q CountQuery) *IncCount {
	return &IncCount{newIDSet("count", q, func(v TrackView, id video.TrackID) bool {
		span, live := spanOf(v, id)
		return live && span >= q.MinFrames
	})}
}

// IncRegion is the incremental RegionQuery operator ("region"): the set
// of canonical identities with at least MinFrames deduplicated boxes
// centered inside the region. Unlike spans, dwell can shrink — a merge
// can replace a frame's counted box with a lower-ID member's box whose
// center lies outside — so both directions of the predicate flip are
// live paths, not just removals.
type IncRegion struct{ idSet }

// NewIncRegion returns an empty incremental operator for q.
func NewIncRegion(q RegionQuery) *IncRegion {
	return &IncRegion{newIDSet("region", q, func(v TrackView, id video.TrackID) bool {
		_, _, live := v.Interval(id)
		return live && v.Dwell(id, q.Region) >= q.MinFrames
	})}
}

// IncCoOccur is the incremental CoOccurQuery operator. Per update it
// revalidates every held group touching a changed or removed member
// (retracting those no longer valid — a member merged away, or a
// plurality class flip breaking the class multiset) and enumerates new
// qualifying groups, which necessarily contain at least one changed
// member because group validity is a function of member intervals and
// classes alone. Each new group is enumerated exactly once: the pass
// for changed member c excludes all earlier changed members from the
// candidate pool.
type IncCoOccur struct {
	q     CoOccurQuery
	have  map[string][]video.TrackID
	stats OpStats
}

// NewIncCoOccur returns an empty incremental operator for q. It panics
// under the same conditions as CoOccurQuery.Answer: GroupSize < 2, or a
// Classes constraint whose length differs from GroupSize.
func NewIncCoOccur(q CoOccurQuery) *IncCoOccur {
	if q.GroupSize < 2 {
		panic("query: CoOccurQuery.GroupSize must be >= 2")
	}
	if q.Classes != nil && len(q.Classes) != q.GroupSize {
		panic("query: CoOccurQuery.Classes length must equal GroupSize")
	}
	return &IncCoOccur{q: q, have: make(map[string][]video.TrackID)}
}

// Kind returns "cooccur".
func (o *IncCoOccur) Kind() string { return "cooccur" }

// Apply implements Incremental.
func (o *IncCoOccur) Apply(v TrackView, changed, removed []video.TrackID) []Delta {
	touched := make(map[video.TrackID]bool, len(changed)+len(removed))
	for _, id := range changed {
		touched[id] = true
	}
	for _, id := range removed {
		touched[id] = true
	}

	var retracts, asserts [][]video.TrackID

	var stale []string
	for k, g := range o.have {
		for _, id := range g {
			if touched[id] {
				stale = append(stale, k)
				break
			}
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		g := o.have[k]
		o.stats.Scanned++
		if !o.groupValid(v, g) {
			delete(o.have, k)
			retracts = append(retracts, g)
		}
	}

	cands := o.candidates(v)
	excluded := make(map[video.TrackID]bool, len(changed))
	for _, c := range changed {
		if span, live := spanOf(v, c); !live || span < o.q.MinFrames {
			excluded[c] = true // not a candidate; still exclude from later passes
			continue
		}
		o.enumerate(v, cands, c, excluded, func(g []video.TrackID) {
			key := groupKey(g)
			if _, held := o.have[key]; held {
				return
			}
			o.have[key] = g
			asserts = append(asserts, g)
		})
		excluded[c] = true
	}
	return emit(&o.stats, retracts, asserts)
}

// candidates returns the live identities whose own span reaches
// MinFrames — the same prefilter batch Answer applies — sorted
// ascending.
func (o *IncCoOccur) candidates(v TrackView) []video.TrackID {
	ids := v.IDs()
	out := make([]video.TrackID, 0, len(ids))
	for _, id := range ids {
		if span, live := spanOf(v, id); live && span >= o.q.MinFrames {
			out = append(out, id)
		}
	}
	return out
}

// enumerate yields every qualifying group that contains must, drawing
// the remaining members from cands minus excluded, each unordered group
// exactly once. The recursion prunes on the running interval
// intersection exactly like batch Answer.
func (o *IncCoOccur) enumerate(v TrackView, cands []video.TrackID, must video.TrackID, excluded map[video.TrackID]bool, yield func([]video.TrackID)) {
	ms, me, ok := v.Interval(must)
	if !ok {
		return
	}
	group := make([]video.TrackID, 1, o.q.GroupSize)
	group[0] = must
	var rec func(start int, lo, hi video.FrameIndex)
	rec = func(start int, lo, hi video.FrameIndex) {
		if len(group) == o.q.GroupSize {
			o.stats.Scanned++
			if !o.classesMatchView(v, group) {
				return
			}
			g := append([]video.TrackID(nil), group...)
			video.SortTrackIDs(g)
			yield(g)
			return
		}
		for i := start; i < len(cands); i++ {
			id := cands[i]
			if id == must || excluded[id] {
				continue
			}
			s, e, live := v.Interval(id)
			if !live {
				continue
			}
			nlo, nhi := lo, hi
			if s > nlo {
				nlo = s
			}
			if e < nhi {
				nhi = e
			}
			if int(nhi-nlo)+1 < o.q.MinFrames {
				continue
			}
			group = append(group, id)
			rec(i+1, nlo, nhi)
			group = group[:len(group)-1]
		}
	}
	rec(0, ms, me)
}

// groupValid re-evaluates a held group under current view state: every
// member live with the joint interval intersection reaching MinFrames,
// and the class multiset still matching.
func (o *IncCoOccur) groupValid(v TrackView, g []video.TrackID) bool {
	var lo, hi video.FrameIndex
	for i, id := range g {
		s, e, ok := v.Interval(id)
		if !ok {
			return false
		}
		if i == 0 {
			lo, hi = s, e
		} else {
			if s > lo {
				lo = s
			}
			if e < hi {
				hi = e
			}
		}
	}
	if int(hi-lo)+1 < o.q.MinFrames {
		return false
	}
	return o.classesMatchView(v, g)
}

// classesMatchView is CoOccurQuery.classesMatch evaluated on view state.
func (o *IncCoOccur) classesMatchView(v TrackView, g []video.TrackID) bool {
	if o.q.Classes == nil {
		return true
	}
	want := make(map[video.ClassID]int, len(o.q.Classes))
	for _, c := range o.q.Classes {
		want[c]++
	}
	for _, id := range g {
		c := v.Class(id)
		if want[c] == 0 {
			return false
		}
		want[c]--
	}
	return true
}

// Groups returns the current answer groups, sorted — the incremental
// counterpart of CoOccurQuery.Answer.
func (o *IncCoOccur) Groups() []Group {
	out := make([]Group, 0, len(o.have))
	for _, g := range o.have {
		out = append(out, Group(g))
	}
	sort.Slice(out, func(i, j int) bool { return lessGroup(out[i], out[j]) })
	return out
}

// Results implements Incremental.
func (o *IncCoOccur) Results() [][]video.TrackID {
	groups := o.Groups()
	out := make([][]video.TrackID, len(groups))
	for i, g := range groups {
		out[i] = []video.TrackID(g)
	}
	return out
}

// Stats implements Incremental.
func (o *IncCoOccur) Stats() OpStats { return o.stats }

// State implements Incremental.
func (o *IncCoOccur) State() OperatorState {
	return OperatorState{Kind: o.Kind(), Params: fmt.Sprintf("%+v", o.q), Result: o.Results(), Stats: o.stats}
}

// RestoreState implements Incremental.
func (o *IncCoOccur) RestoreState(st OperatorState) error {
	if err := checkState(st, o.Kind(), fmt.Sprintf("%+v", o.q)); err != nil {
		return err
	}
	have := make(map[string][]video.TrackID, len(st.Result))
	for _, row := range st.Result {
		if len(row) != o.q.GroupSize {
			return fmt.Errorf("query: cooccur state row has %d ids, want %d", len(row), o.q.GroupSize)
		}
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				return fmt.Errorf("query: cooccur state row %v is not strictly ascending", row)
			}
		}
		key := groupKey(row)
		if _, dup := have[key]; dup {
			return fmt.Errorf("query: cooccur state has duplicate group %v", row)
		}
		have[key] = append([]video.TrackID(nil), row...)
	}
	o.have, o.stats = have, st.Stats
	return nil
}

// groupKey is the canonical map key of a sorted group.
func groupKey(g []video.TrackID) string {
	var b strings.Builder
	for i, id := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	return b.String()
}

// IncPrecedes is the incremental PrecedesQuery operator over ordered
// pairs. A merge can move an identity's entry earlier (coalescing with
// an earlier fragment), so pair qualification flips in both directions;
// per update every ordered pair touching a changed identity is
// re-evaluated against the full live set, and pairs holding a removed
// identity are retracted.
type IncPrecedes struct {
	q     PrecedesQuery
	have  map[OrderedPair]bool
	stats OpStats
}

// NewIncPrecedes returns an empty incremental operator for q.
func NewIncPrecedes(q PrecedesQuery) *IncPrecedes {
	return &IncPrecedes{q: q, have: make(map[OrderedPair]bool)}
}

// Kind returns "precedes".
func (o *IncPrecedes) Kind() string { return "precedes" }

// Apply implements Incremental.
func (o *IncPrecedes) Apply(v TrackView, changed, removed []video.TrackID) []Delta {
	var retracts, asserts [][]video.TrackID
	if len(removed) > 0 {
		rm := make(map[video.TrackID]bool, len(removed))
		for _, id := range removed {
			rm[id] = true
		}
		var stale []OrderedPair
		for p := range o.have {
			if rm[p.First] || rm[p.Second] {
				stale = append(stale, p)
			}
		}
		sort.Slice(stale, func(i, j int) bool { return lessPair(stale[i], stale[j]) })
		for _, p := range stale {
			delete(o.have, p)
			retracts = append(retracts, []video.TrackID{p.First, p.Second})
		}
	}
	seen := make(map[OrderedPair]bool)
	ids := v.IDs()
	for _, c := range changed {
		for _, x := range ids {
			if x == c {
				continue
			}
			for _, p := range [2]OrderedPair{{First: c, Second: x}, {First: x, Second: c}} {
				if seen[p] {
					continue
				}
				seen[p] = true
				o.stats.Scanned++
				qual := o.eval(v, p.First, p.Second)
				switch {
				case qual && !o.have[p]:
					o.have[p] = true
					asserts = append(asserts, []video.TrackID{p.First, p.Second})
				case !qual && o.have[p]:
					delete(o.have, p)
					retracts = append(retracts, []video.TrackID{p.First, p.Second})
				}
			}
		}
	}
	return emit(&o.stats, retracts, asserts)
}

// eval is the PrecedesQuery pair predicate on view state.
func (o *IncPrecedes) eval(v TrackView, a, b video.TrackID) bool {
	as, ae, ok := v.Interval(a)
	if !ok {
		return false
	}
	bs, be, ok := v.Interval(b)
	if !ok {
		return false
	}
	if int(bs-as) < o.q.MinGap {
		return false
	}
	hi := ae
	if be < hi {
		hi = be
	}
	return int(hi-bs)+1 >= o.q.MinOverlap
}

// Pairs returns the current answer pairs, sorted — the incremental
// counterpart of PrecedesQuery.Answer.
func (o *IncPrecedes) Pairs() []OrderedPair {
	out := make([]OrderedPair, 0, len(o.have))
	for p := range o.have {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return lessPair(out[i], out[j]) })
	return out
}

// Results implements Incremental.
func (o *IncPrecedes) Results() [][]video.TrackID {
	pairs := o.Pairs()
	out := make([][]video.TrackID, len(pairs))
	for i, p := range pairs {
		out[i] = []video.TrackID{p.First, p.Second}
	}
	return out
}

// Stats implements Incremental.
func (o *IncPrecedes) Stats() OpStats { return o.stats }

// State implements Incremental.
func (o *IncPrecedes) State() OperatorState {
	return OperatorState{Kind: o.Kind(), Params: fmt.Sprintf("%+v", o.q), Result: o.Results(), Stats: o.stats}
}

// RestoreState implements Incremental.
func (o *IncPrecedes) RestoreState(st OperatorState) error {
	if err := checkState(st, o.Kind(), fmt.Sprintf("%+v", o.q)); err != nil {
		return err
	}
	have := make(map[OrderedPair]bool, len(st.Result))
	for _, row := range st.Result {
		if len(row) != 2 {
			return fmt.Errorf("query: precedes state row has %d ids, want 2", len(row))
		}
		if row[0] == row[1] {
			return fmt.Errorf("query: precedes state pairs track %d with itself", row[0])
		}
		p := OrderedPair{First: row[0], Second: row[1]}
		if have[p] {
			return fmt.Errorf("query: precedes state has duplicate pair %v", p)
		}
		have[p] = true
	}
	o.have, o.stats = have, st.Stats
	return nil
}

// lessPair orders pairs by (First, Second).
func lessPair(a, b OrderedPair) bool {
	if a.First != b.First {
		return a.First < b.First
	}
	return a.Second < b.Second
}
