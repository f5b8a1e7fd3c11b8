package histlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// genEntries builds n deterministic window entries exercising every
// feed shape: each window extends three fresh tracks (ids 3i..3i+2)
// with three frames each, merges the window's first track into the
// running group rooted at track 0, and merges the window's second and
// third tracks together — so replay sees chained unions, retractions
// after coalescing, and contested frames.
func genEntries(n int) []WindowEntry {
	entries := make([]WindowEntry, 0, n)
	seq := 0
	for i := 0; i < n; i++ {
		w := video.Window{
			Index:   i,
			Start:   video.FrameIndex(i * 5),
			End:     video.FrameIndex(i*5 + 4),
			Nominal: 5,
		}
		e := WindowEntry{Window: w}
		base := video.TrackID(i * 3)
		for t := video.TrackID(0); t < 3; t++ {
			id := base + t
			for f := video.FrameIndex(0); f < 3; f++ {
				e.Extends = append(e.Extends, Extend{
					Track: id,
					Frame: w.Start + f,
					CX:    float64(id),
					CY:    float64(f),
					Class: video.ClassID(t % 2),
				})
			}
		}
		if i > 0 {
			// Chain: window i's first track joins the group canonicalised
			// at 0 (merged there by every earlier window).
			e.Events = append(e.Events, core.MergeEvent{
				Seq:   seq,
				Pair:  video.PairKey{A: base - 3, B: base},
				FromA: 0,
				FromB: base,
				Canon: 0,
			})
			seq++
			// Coalesce the window's other two tracks; base+2 is retracted.
			e.Events = append(e.Events, core.MergeEvent{
				Seq:   seq,
				Pair:  video.PairKey{A: base + 1, B: base + 2},
				FromA: base + 1,
				FromB: base + 2,
				Canon: base + 1,
			})
			seq++
		}
		entries = append(entries, e)
	}
	return entries
}

// buildView replays the first upto entries into a fresh LiveView,
// panicking on feed errors (generated entries are always valid).
func buildView(entries []WindowEntry, upto int) *trackdb.LiveView {
	v := trackdb.NewLiveView()
	for i := range entries[:upto] {
		if err := applyEntry(v, &entries[i]); err != nil {
			panic(err)
		}
	}
	v.Flush()
	return v
}

// refView is buildView as a test helper — the ground truth every log
// replay must match bit-identically.
func refView(t *testing.T, entries []WindowEntry, upto int) *trackdb.LiveView {
	t.Helper()
	return buildView(entries, upto)
}

func mustEqualStates(t *testing.T, got, want trackdb.ViewState, what string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: view state diverged\ngot:  %+v\nwant: %+v", what, got, want)
	}
}

// openLog opens a log over dir with a small segment size so tests
// exercise multi-segment chains.
func openLog(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{WindowsPerSegment: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendAll(t *testing.T, l *Log, entries []WindowEntry) {
	t.Helper()
	for i := range entries {
		if err := l.AppendWindow(entries[i]); err != nil {
			t.Fatalf("AppendWindow %d: %v", i, err)
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	entries := genEntries(6)
	hdr := SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 7, Kind: KindRaw}
	data, ft, err := EncodeSegment(hdr, entries, nil, SegmentFooter{})
	if err != nil {
		t.Fatalf("EncodeSegment: %v", err)
	}
	if ft.Records != 6 || ft.EndWindow != 6 || ft.EndSeq != 10 || ft.EndFrame != 29 {
		t.Fatalf("unexpected footer %+v", ft)
	}
	seg, err := DecodeSegment(data)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if !reflect.DeepEqual(seg.Header, hdr) || !reflect.DeepEqual(seg.Entries, entries) || !reflect.DeepEqual(seg.Footer, ft) {
		t.Fatalf("round trip diverged: %+v", seg)
	}

	// Base segments round-trip a view snapshot the same way.
	st := refView(t, entries, 6).State()
	bhdr := SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 8, Kind: KindBase}
	bdata, bft, err := EncodeSegment(bhdr, nil, st.Tracks, SegmentFooter{EndWindow: 6, EndSeq: st.Seq, EndFrame: 29})
	if err != nil {
		t.Fatalf("EncodeSegment(base): %v", err)
	}
	bseg, err := DecodeSegment(bdata)
	if err != nil {
		t.Fatalf("DecodeSegment(base): %v", err)
	}
	if !reflect.DeepEqual(bseg.Tracks, st.Tracks) || bft.EndSeq != st.Seq {
		t.Fatalf("base round trip diverged")
	}
	if _, err := trackdb.RestoreView(trackdb.ViewState{Seq: bseg.Footer.EndSeq, Tracks: bseg.Tracks}); err != nil {
		t.Fatalf("restoring decoded base: %v", err)
	}
}

func TestSegmentRejectsCorruption(t *testing.T) {
	entries := genEntries(4)
	hdr := SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindRaw}
	data, _, err := EncodeSegment(hdr, entries, nil, SegmentFooter{})
	if err != nil {
		t.Fatalf("EncodeSegment: %v", err)
	}

	reject := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		if _, err := DecodeSegment(mutate(append([]byte(nil), data...))); err == nil {
			t.Errorf("%s: corrupt segment decoded cleanly", name)
		}
	}
	reject("bit flip in record", func(b []byte) []byte {
		i := bytes.IndexByte(b, '\n') + 10 // inside the first record line
		b[i] ^= 0x01
		return b
	})
	reject("truncated mid-line", func(b []byte) []byte { return b[:len(b)-3] })
	reject("footer dropped", func(b []byte) []byte {
		j := bytes.LastIndexByte(b[:len(b)-1], '\n')
		return b[:j+1]
	})
	reject("record dropped", func(b []byte) []byte {
		// Remove the second line entirely: checksum and count both break.
		i := bytes.IndexByte(b, '\n') + 1
		j := i + bytes.IndexByte(b[i:], '\n') + 1
		return append(b[:i], b[j:]...)
	})
	reject("empty file", func(b []byte) []byte { return nil })
	reject("future version", func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"version":1`), []byte(`"version":99`), 1)
	})
	reject("foreign format", func(b []byte) []byte {
		return bytes.Replace(b, []byte(SegmentFormat), []byte("tmerge/other"), 1)
	})
	reject("segment doubled", func(b []byte) []byte { return append(b, data...) })
}

func TestLogSealReplayAndReopen(t *testing.T) {
	entries := genEntries(10)
	dir := t.TempDir()
	l := openLog(t, dir) // seals every 4 windows
	appendAll(t, l, entries)
	if l.Windows() != 10 || l.SealedWindows() != 8 {
		t.Fatalf("cursors: windows %d sealed %d", l.Windows(), l.SealedWindows())
	}

	// Replay including the in-memory active tail.
	full, err := l.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView(-1): %v", err)
	}
	mustEqualStates(t, full.State(), refView(t, entries, 10).State(), "full replay")

	// Mid-log replay cuts exactly at a window boundary.
	mid, err := l.ReplayView(5)
	if err != nil {
		t.Fatalf("ReplayView(5): %v", err)
	}
	mustEqualStates(t, mid.State(), refView(t, entries, 5).State(), "mid replay")

	// Continuity violations are rejected.
	if err := l.AppendWindow(entries[3]); err == nil {
		t.Fatal("out-of-order window accepted")
	}
	bad := genEntries(11)[10]
	bad.Events = []core.MergeEvent{{Seq: 999, Pair: video.PairKey{A: 27, B: 30}, FromA: 0, FromB: 30, Canon: 0}}
	if err := l.AppendWindow(bad); err == nil {
		t.Fatal("event seq gap accepted")
	}

	// Seal the tail and reopen from disk only: the sealed prefix must
	// replay identically; the unsealed tail would have been lost.
	if err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	l2 := openLog(t, dir)
	if l2.Windows() != 10 || l2.Seq() != l.Seq() || l2.EndFrame() != l.EndFrame() {
		t.Fatalf("reopen cursors diverged: %d/%d/%d", l2.Windows(), l2.Seq(), l2.EndFrame())
	}
	re, err := l2.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView after reopen: %v", err)
	}
	mustEqualStates(t, re.State(), full.State(), "reopen replay")
}

// TestLogAsOf checks ReplayView and AsOf, the two stop conditions of
// one walk, against a reference view at every boundary that walk
// crosses: first over raw segments and an active tail, then over a
// compacted base followed by a sealed raw segment and an active tail.
func TestLogAsOf(t *testing.T) {
	entries := genEntries(9)
	l := openLog(t, t.TempDir())
	appendAll(t, l, entries)
	checkWalk(t, l, entries, 0)

	entries = genEntries(14)
	l = openLog(t, t.TempDir())
	appendAll(t, l, entries[:8])
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	appendAll(t, l, entries[8:])
	if l.RetentionFrame() != entries[7].Window.End || l.SealedRawSegments() != 1 || l.SealedWindows() != 12 {
		t.Fatalf("log shape: retention %d, raw segments %d, sealed windows %d; want a base to window 8, one raw segment, an active tail",
			l.RetentionFrame(), l.SealedRawSegments(), l.SealedWindows())
	}
	checkWalk(t, l, entries, 8)
}

// checkWalk compares, for a log holding entries whose first base
// windows are compacted, AsOf at every frame (its cut and its view) and
// ReplayView at every window count with the reference view, and checks
// that both refuse cuts inside the base.
func checkWalk(t *testing.T, l *Log, entries []WindowEntry, base int) {
	t.Helper()
	last := entries[len(entries)-1].Window.End
	for frame := video.FrameIndex(0); frame <= last+2; frame++ {
		upto := 0
		wantCut := video.FrameIndex(-1)
		for i := range entries {
			if entries[i].Window.End <= frame {
				upto = i + 1
				wantCut = entries[i].Window.End
			}
		}
		v, cut, err := l.AsOf(frame)
		if upto < base {
			if err == nil {
				t.Fatalf("AsOf(%d) inside the compacted base succeeded", frame)
			}
			continue
		}
		if err != nil {
			t.Fatalf("AsOf(%d): %v", frame, err)
		}
		if cut != wantCut {
			t.Fatalf("AsOf(%d) cut at %d, want %d", frame, cut, wantCut)
		}
		mustEqualStates(t, v.State(), refView(t, entries, upto).State(), fmt.Sprintf("AsOf(%d)", frame))
	}
	for upto := 0; upto <= len(entries); upto++ {
		v, err := l.ReplayView(upto)
		if upto < base {
			if err == nil {
				t.Fatalf("ReplayView(%d) inside the compacted base succeeded", upto)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ReplayView(%d): %v", upto, err)
		}
		mustEqualStates(t, v.State(), refView(t, entries, upto).State(), fmt.Sprintf("ReplayView(%d)", upto))
	}
}

func TestCompactionEquivalence(t *testing.T) {
	entries := genEntries(12)
	l := openLog(t, t.TempDir())
	appendAll(t, l, entries)
	if err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	want := refView(t, entries, 12).State()
	before, err := l.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView before compaction: %v", err)
	}
	mustEqualStates(t, before.State(), want, "pre-compaction replay")

	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if l.SealedRawSegments() != 0 || l.Windows() != 12 || l.Seq() != before.Seq() {
		t.Fatalf("post-compaction cursors: raw %d windows %d seq %d", l.SealedRawSegments(), l.Windows(), l.Seq())
	}
	after, err := l.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView after compaction: %v", err)
	}
	mustEqualStates(t, after.State(), want, "compacted replay")

	// Compaction is idempotent and the folded raw files are gone.
	if err := l.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(l.Dir(), "seg-*.ndjson"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly the base segment on disk, have %v (%v)", files, err)
	}

	// History before the base is folded: replaying or cutting there fails
	// loudly, at the boundary it works.
	if _, err := l.ReplayView(5); err == nil {
		t.Fatal("replay into compacted history succeeded")
	}
	if _, _, err := l.AsOf(l.RetentionFrame() - 1); err == nil {
		t.Fatal("AsOf before retention boundary succeeded")
	}
	v, cut, err := l.AsOf(l.RetentionFrame())
	if err != nil || cut != l.RetentionFrame() {
		t.Fatalf("AsOf at retention boundary: cut %d err %v", cut, err)
	}
	mustEqualStates(t, v.State(), want, "AsOf at retention boundary")

	// The log keeps accepting windows after compaction.
	more := genEntries(16)[12:]
	appendAll(t, l, more)
	full, err := l.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView after post-compaction appends: %v", err)
	}
	mustEqualStates(t, full.State(), refView(t, genEntries(16), 16).State(), "post-compaction appends")
}

func TestTruncateTo(t *testing.T) {
	entries := genEntries(10)
	dir := t.TempDir()
	l := openLog(t, dir)
	appendAll(t, l, entries) // seals at 4 and 8, active holds 2

	// A checkpoint taken at the 8-window seal boundary.
	refWindows, refSeq := 8, 14
	if l.SealedWindows() != refWindows || l.SealedSeq() != refSeq {
		t.Fatalf("seal boundary at %d/%d", l.SealedWindows(), l.SealedSeq())
	}
	appendAll(t, l, genEntries(14)[10:]) // extra history past the reference
	if err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}

	if err := l.TruncateTo(5, 8); err == nil {
		t.Fatal("truncation inside a sealed segment succeeded")
	}
	if err := l.TruncateTo(refWindows, refSeq); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if l.Windows() != refWindows || l.Seq() != refSeq {
		t.Fatalf("post-truncation cursors %d/%d", l.Windows(), l.Seq())
	}
	v, err := l.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView after truncation: %v", err)
	}
	mustEqualStates(t, v.State(), refView(t, entries, 8).State(), "truncated replay")

	// Re-appending the same windows reconverges with the original run.
	appendAll(t, l, entries[8:])
	v2, err := l.ReplayView(-1)
	if err != nil {
		t.Fatalf("ReplayView after re-append: %v", err)
	}
	mustEqualStates(t, v2.State(), refView(t, entries, 10).State(), "re-appended replay")

	// A compacted base cannot be cut back through.
	if err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := l.TruncateTo(4, 6); err == nil {
		t.Fatal("truncation past the compacted base succeeded")
	}
}

func TestLoadColdTrackMatchesViewState(t *testing.T) {
	entries := genEntries(10)
	l := openLog(t, t.TempDir())
	appendAll(t, l, entries)
	check := func(stage string) {
		t.Helper()
		v, err := l.ReplayView(-1)
		if err != nil {
			t.Fatalf("%s: ReplayView: %v", stage, err)
		}
		for _, vt := range v.State().Tracks {
			got, err := l.LoadColdTrack(vt.ID, vt.Members)
			if err != nil {
				t.Fatalf("%s: LoadColdTrack(%d): %v", stage, vt.ID, err)
			}
			if !reflect.DeepEqual(got, vt) {
				t.Fatalf("%s: cold track %d diverged\ngot:  %+v\nwant: %+v", stage, vt.ID, got, vt)
			}
		}
	}
	check("raw")
	if err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	appendAll(t, l, genEntries(13)[10:]) // cold loads must also see the active tail
	check("compacted")

	if _, err := l.LoadColdTrack(999, []video.TrackID{999}); err == nil {
		t.Fatal("cold load of an unknown track succeeded")
	}
}

func TestLogRejectsTamperedSegments(t *testing.T) {
	entries := genEntries(8)
	dir := t.TempDir()
	l := openLog(t, dir)
	appendAll(t, l, entries)

	files, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want 2 sealed segments, have %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(data, '\n') + 10
	data[i] ^= 0x01
	if err := os.WriteFile(files[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReplayView(-1); err == nil {
		t.Fatal("replay over a tampered segment succeeded")
	}

	// Swapping in a valid segment from another log is caught by the
	// manifest's recorded checksum even though the file itself decodes.
	other := openLog(t, t.TempDir())
	oe := genEntries(8)
	for i := range oe {
		oe[i].Extends = oe[i].Extends[:1]
	}
	appendAll(t, other, oe)
	ofiles, err := filepath.Glob(filepath.Join(other.Dir(), "seg-*.ndjson"))
	if err != nil || len(ofiles) != 2 {
		t.Fatalf("want 2 segments in the other log, have %v (%v)", ofiles, err)
	}
	swapped, err := os.ReadFile(ofiles[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReplayView(-1); err == nil {
		t.Fatal("replay over a swapped segment succeeded")
	}
}

func TestOpenCleansTempFilesAndChecksManifest(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	appendAll(t, l, genEntries(4))
	stale := filepath.Join(dir, "seg-000099.ndjson.tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
	if l2.Windows() != 4 {
		t.Fatalf("reopened log covers %d windows", l2.Windows())
	}

	// A manifest listing a missing segment file is refused.
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 segment, have %v (%v)", files, err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("open over missing segment: %v", err)
	}
}
