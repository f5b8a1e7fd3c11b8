package trackdb_test

import (
	"fmt"
	"testing"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/histlog"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// tierEntries builds n deterministic window entries: each window
// extends three fresh tracks, merges its first into the long-lived
// group rooted at 0, and coalesces the other two — so eviction sees a
// mix of one ever-growing hot group and many short-lived groups that
// age out of the horizon.
func tierEntries(n int) []histlog.WindowEntry {
	entries := make([]histlog.WindowEntry, 0, n)
	seq := 0
	for i := 0; i < n; i++ {
		w := video.Window{Index: i, Start: video.FrameIndex(i * 5), End: video.FrameIndex(i*5 + 4), Nominal: 5}
		e := histlog.WindowEntry{Window: w}
		base := video.TrackID(i * 3)
		for t := video.TrackID(0); t < 3; t++ {
			id := base + t
			for f := video.FrameIndex(0); f < 3; f++ {
				e.Extends = append(e.Extends, histlog.Extend{
					Track: id, Frame: w.Start + f,
					CX: float64(id), CY: float64(f), Class: video.ClassID(t % 2),
				})
			}
		}
		if i > 0 {
			e.Events = append(e.Events,
				core.MergeEvent{Seq: seq, Pair: video.PairKey{A: base - 3, B: base}, FromA: 0, FromB: base, Canon: 0},
				core.MergeEvent{Seq: seq + 1, Pair: video.PairKey{A: base + 1, B: base + 2}, FromA: base + 1, FromB: base + 2, Canon: base + 1})
			seq += 2
		}
		entries = append(entries, e)
	}
	return entries
}

// The tiered-view tests: a LiveView with a histlog cold store attached
// and evicting at a horizon must answer exactly like a never-evicting
// LiveView fed the same entries.

// feedEntry pushes one window entry into a tiered view exactly as the
// ingest commit path does: extensions, then events, then Flush, then
// eviction at the horizon cutoff.
func feedEntry(t *testing.T, tv *trackdb.LiveView, e *histlog.WindowEntry, horizon video.FrameIndex) {
	t.Helper()
	for _, x := range e.Extends {
		if err := tv.ExtendCell(x.Track, x.Frame, x.Class, x.CX, x.CY); err != nil {
			t.Fatalf("ExtendCell: %v", err)
		}
	}
	if err := tv.ApplyEvents(e.Events); err != nil {
		t.Fatalf("ApplyEvents: %v", err)
	}
	tv.Flush()
	tv.EvictBefore(e.Window.End + 1 - horizon)
}

// feedPlain pushes the same entry into a never-evicting LiveView.
func feedPlain(t *testing.T, v *trackdb.LiveView, e *histlog.WindowEntry) {
	t.Helper()
	for _, x := range e.Extends {
		if err := v.ExtendCell(x.Track, x.Frame, x.Class, x.CX, x.CY); err != nil {
			t.Fatalf("plain ExtendCell: %v", err)
		}
	}
	if err := v.ApplyEvents(e.Events); err != nil {
		t.Fatalf("plain ApplyEvents: %v", err)
	}
	v.Flush()
}

// compareViews checks every TrackView answer the query operators
// consult, across the full ID set.
func compareViews(t *testing.T, tv *trackdb.LiveView, v *trackdb.LiveView, what string) {
	t.Helper()
	got, want := tv.IDs(), v.IDs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: IDs diverged\ngot:  %v\nwant: %v", what, got, want)
	}
	probes := []geom.Rect{
		{X: -1, Y: -1, W: 1000, H: 1000},
		{X: 0, Y: 0, W: 10, H: 1},
		{X: 5, Y: 1, W: 20, H: 0.5},
	}
	for _, id := range want {
		gs, ge, gok := tv.Interval(id)
		ws, we, wok := v.Interval(id)
		if gs != ws || ge != we || gok != wok {
			t.Fatalf("%s: Interval(%d) = (%d,%d,%v), want (%d,%d,%v)", what, id, gs, ge, gok, ws, we, wok)
		}
		if tv.Boxes(id) != v.Boxes(id) {
			t.Fatalf("%s: Boxes(%d) = %d, want %d", what, id, tv.Boxes(id), v.Boxes(id))
		}
		if tv.Class(id) != v.Class(id) {
			t.Fatalf("%s: Class(%d) = %d, want %d", what, id, tv.Class(id), v.Class(id))
		}
		for _, r := range probes {
			if tv.Dwell(id, r) != v.Dwell(id, r) {
				t.Fatalf("%s: Dwell(%d, %+v) = %d, want %d", what, id, r, tv.Dwell(id, r), v.Dwell(id, r))
			}
		}
		if tv.Canonical(id) != v.Canonical(id) {
			t.Fatalf("%s: Canonical(%d) diverged", what, id)
		}
	}
	if tv.Len() != v.Len() || tv.Seq() != v.Seq() {
		t.Fatalf("%s: Len/Seq diverged: %d/%d vs %d/%d", what, tv.Len(), tv.Seq(), v.Len(), v.Seq())
	}
}

func TestTieredViewAnswersMatchLiveView(t *testing.T) {
	entries := tierEntries(20)
	log, err := histlog.Open(t.TempDir(), histlog.Options{WindowsPerSegment: 4})
	if err != nil {
		t.Fatal(err)
	}
	tv := trackdb.NewLiveView()
	tv.AttachColdStore(log)
	plain := trackdb.NewLiveView()
	const horizon = 10
	for i := range entries {
		if err := log.AppendWindow(entries[i]); err != nil {
			t.Fatalf("AppendWindow %d: %v", i, err)
		}
		feedEntry(t, tv, &entries[i], horizon)
		feedPlain(t, plain, &entries[i])
		compareViews(t, tv, plain, fmt.Sprintf("window %d", i))
	}
	st := tv.Stats()
	if st.Evicted == 0 {
		t.Fatal("horizon never evicted anything; the test is not exercising tiering")
	}
	if tv.ColdTracks() == 0 {
		t.Fatal("no cold tracks at end of run")
	}

	// The hot tier holds exactly the tracks alive within the horizon:
	// the bounded-memory invariant, and its determinism.
	cutoff := entries[len(entries)-1].Window.End + 1 - horizon
	for _, id := range plain.IDs() {
		_, end, _ := plain.Interval(id)
		if hot := tv.IsHot(id); hot != (end >= cutoff) {
			t.Fatalf("track %d (end %d, cutoff %d): hot=%v", id, end, cutoff, hot)
		}
	}
	if tv.HotTracks()+tv.ColdTracks() != plain.Len() {
		t.Fatalf("tier split %d+%d does not cover %d identities", tv.HotTracks(), tv.ColdTracks(), plain.Len())
	}
}

func TestTieredViewRehydratesOnLateEvents(t *testing.T) {
	log, err := histlog.Open(t.TempDir(), histlog.Options{WindowsPerSegment: 2})
	if err != nil {
		t.Fatal(err)
	}
	tv := trackdb.NewLiveView()
	tv.AttachColdStore(log)
	plain := trackdb.NewLiveView()

	// Two windows of quiet history: tracks 0 and 1 live early, then age
	// far out of the horizon.
	entries := []histlog.WindowEntry{
		{
			Window: video.Window{Index: 0, Start: 0, End: 9, Nominal: 10},
			Extends: []histlog.Extend{
				{Track: 0, Frame: 0, CX: 1, CY: 1},
				{Track: 0, Frame: 2, CX: 2, CY: 1},
				{Track: 1, Frame: 1, CX: 3, CY: 2, Class: 1},
				{Track: 1, Frame: 3, CX: 4, CY: 2, Class: 1},
			},
		},
		{
			Window: video.Window{Index: 1, Start: 10, End: 19, Nominal: 10},
			Extends: []histlog.Extend{
				{Track: 7, Frame: 15, CX: 9, CY: 9},
			},
		},
	}
	for i := range entries {
		if err := log.AppendWindow(entries[i]); err != nil {
			t.Fatal(err)
		}
		feedEntry(t, tv, &entries[i], 5)
		feedPlain(t, plain, &entries[i])
	}
	if tv.ColdTracks() < 2 {
		t.Fatalf("tracks 0 and 1 should be cold, have %d cold", tv.ColdTracks())
	}

	// A late union touching the two cold groups rehydrates both; a late
	// extension of a cold group rehydrates it too.
	late := histlog.WindowEntry{
		Window:  video.Window{Index: 2, Start: 20, End: 29, Nominal: 10},
		Extends: []histlog.Extend{{Track: 1, Frame: 21, CX: 5, CY: 2, Class: 1}},
		Events:  []core.MergeEvent{{Seq: 0, Pair: video.PairKey{A: 0, B: 1}, FromA: 0, FromB: 1, Canon: 0}},
	}
	if err := log.AppendWindow(late); err != nil {
		t.Fatal(err)
	}
	feedEntry(t, tv, &late, 5)
	feedPlain(t, plain, &late)
	compareViews(t, tv, plain, "after rehydration")
	if tv.Stats().Rehydrated == 0 {
		t.Fatal("late event did not rehydrate")
	}
}

// TestTieredViewOutOfOrderEventRejected: a view with a cold store keeps
// the event-cursor discipline — an event whose Seq is not
// exactly the next cursor position is rejected without mutating
// anything, including through the batch path.
func TestTieredViewOutOfOrderEventRejected(t *testing.T) {
	log, err := histlog.Open(t.TempDir(), histlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tv := trackdb.NewLiveView()
	tv.AttachColdStore(log)
	for id := video.TrackID(0); id < 3; id++ {
		if err := tv.ExtendCell(id, video.FrameIndex(id), 0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	tv.Flush()

	ahead := core.MergeEvent{Seq: 1, Pair: video.PairKey{A: 0, B: 1}, FromA: 0, FromB: 1, Canon: 0}
	if err := tv.ApplyEvent(ahead); err == nil {
		t.Fatal("event ahead of the cursor accepted")
	}
	if tv.Seq() != 0 || tv.Len() != 3 {
		t.Fatalf("rejected event mutated the view: seq %d, len %d", tv.Seq(), tv.Len())
	}
	// A batch whose second event repeats a seq stops at the bad event,
	// leaving the cursor on the applied prefix.
	batch := []core.MergeEvent{
		{Seq: 0, Pair: video.PairKey{A: 0, B: 1}, FromA: 0, FromB: 1, Canon: 0},
		{Seq: 0, Pair: video.PairKey{A: 0, B: 2}, FromA: 0, FromB: 2, Canon: 0},
	}
	if err := tv.ApplyEvents(batch); err == nil {
		t.Fatal("replayed seq accepted")
	}
	if tv.Seq() != 1 {
		t.Fatalf("cursor %d after partial batch, want 1", tv.Seq())
	}
}

// TestTieredViewRetractionAfterCoalesceChain drives a lineage through
// repeated re-canonicalisation — each hop retracts the previous canon —
// with evictions between hops so every coalesce touches a cold group
// and replays through the store. The tiered view must match a plain
// view cell-for-cell and report the same retracted identities.
func TestTieredViewRetractionAfterCoalesceChain(t *testing.T) {
	log, err := histlog.Open(t.TempDir(), histlog.Options{WindowsPerSegment: 2})
	if err != nil {
		t.Fatal(err)
	}
	tv := trackdb.NewLiveView()
	tv.AttachColdStore(log)
	plain := trackdb.NewLiveView()
	const horizon = 8

	win := func(i int) video.Window {
		return video.Window{Index: i, Start: video.FrameIndex(i * 10), End: video.FrameIndex(i*10 + 9), Nominal: 10}
	}
	// Window 0 births tracks 5, 6, 7; each later window revives the
	// chain's current head and folds it under a smaller canon:
	// 7 -> 6 -> 5 -> 0.
	entries := []histlog.WindowEntry{
		{Window: win(0), Extends: []histlog.Extend{
			{Track: 5, Frame: 0, CX: 5, CY: 1},
			{Track: 6, Frame: 1, CX: 6, CY: 1},
			{Track: 7, Frame: 2, CX: 7, CY: 1},
		}},
		{Window: win(1), Extends: []histlog.Extend{{Track: 7, Frame: 12, CX: 7, CY: 2}},
			Events: []core.MergeEvent{{Seq: 0, Pair: video.PairKey{A: 6, B: 7}, FromA: 6, FromB: 7, Canon: 6}}},
		{Window: win(2), Extends: []histlog.Extend{{Track: 6, Frame: 22, CX: 6, CY: 3}},
			Events: []core.MergeEvent{{Seq: 1, Pair: video.PairKey{A: 5, B: 6}, FromA: 5, FromB: 6, Canon: 5}}},
		{Window: win(3), Extends: []histlog.Extend{
			{Track: 0, Frame: 30, CX: 0, CY: 4},
			{Track: 5, Frame: 32, CX: 5, CY: 4}},
			Events: []core.MergeEvent{{Seq: 2, Pair: video.PairKey{A: 0, B: 5}, FromA: 0, FromB: 5, Canon: 0}}},
	}
	for i := range entries {
		if err := log.AppendWindow(entries[i]); err != nil {
			t.Fatal(err)
		}
		for _, x := range entries[i].Extends {
			if err := tv.ExtendCell(x.Track, x.Frame, x.Class, x.CX, x.CY); err != nil {
				t.Fatalf("window %d ExtendCell: %v", i, err)
			}
			if err := plain.ExtendCell(x.Track, x.Frame, x.Class, x.CX, x.CY); err != nil {
				t.Fatalf("window %d plain ExtendCell: %v", i, err)
			}
		}
		if err := tv.ApplyEvents(entries[i].Events); err != nil {
			t.Fatalf("window %d ApplyEvents: %v", i, err)
		}
		if err := plain.ApplyEvents(entries[i].Events); err != nil {
			t.Fatalf("window %d plain ApplyEvents: %v", i, err)
		}
		gc, gr := tv.Flush()
		wc, wr := plain.Flush()
		if fmt.Sprint(gc) != fmt.Sprint(wc) || fmt.Sprint(gr) != fmt.Sprint(wr) {
			t.Fatalf("window %d: Flush deltas diverged: (%v,%v) vs (%v,%v)", i, gc, gr, wc, wr)
		}
		if i > 0 {
			// Each coalesce retracts exactly the superseded canon.
			wantGone := entries[i].Events[0].FromB
			found := false
			for _, id := range wr {
				if id == wantGone {
					found = true
				}
			}
			if !found {
				t.Fatalf("window %d: coalesce did not retract %d (removed %v)", i, wantGone, wr)
			}
		}
		tv.EvictBefore(entries[i].Window.End + 1 - horizon)
		compareViews(t, tv, plain, fmt.Sprintf("chain window %d", i))
	}
	if tv.Stats().Rehydrated == 0 {
		t.Fatal("chain never rehydrated a cold group; evictions were not exercised")
	}
	// The surviving canon holds the whole lineage.
	if got := tv.Canonical(7); got != 0 {
		t.Fatalf("Canonical(7) = %d after the chain, want 0", got)
	}
}

func TestTieredViewWithoutStoreRefusesColdTouch(t *testing.T) {
	tv := trackdb.NewLiveView()
	if err := tv.ExtendCell(3, 1, 0, 1, 1); err != nil {
		t.Fatalf("hot extension failed: %v", err)
	}
	tv.Flush()
	tv.EvictBefore(100)
	if tv.ColdTracks() != 1 {
		t.Fatalf("want 1 cold track, have %d", tv.ColdTracks())
	}
	if tv.PageErr() != nil {
		t.Fatalf("page error before any cold read: %v", tv.PageErr())
	}
	// A read that needs the cold cells answers 0 and keeps the failure.
	if n := tv.Dwell(3, geom.Rect{X: 0, Y: 0, W: 10, H: 10}); n != 0 || tv.PageErr() == nil {
		t.Fatalf("cold Dwell with no store: %d, page error %v", n, tv.PageErr())
	}
	if err := tv.ExtendCell(3, 200, 0, 1, 1); err == nil {
		t.Fatal("cold extension with no store succeeded")
	}
}
