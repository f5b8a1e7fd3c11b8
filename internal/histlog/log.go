package histlog

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// Options configures a Log.
type Options struct {
	// WindowsPerSegment is the auto-seal threshold: once the active
	// segment holds this many window entries it is sealed to disk.
	// Defaults to DefaultWindowsPerSegment when zero or negative.
	WindowsPerSegment int
}

// DefaultWindowsPerSegment is the auto-seal threshold used when
// Options does not set one.
const DefaultWindowsPerSegment = 64

// Log is one session's segmented history on disk: a directory of
// sealed, checksummed segment files indexed by a manifest, plus the
// in-memory active segment accumulating window entries since the last
// seal. The active tail is deliberately volatile — a crash loses it,
// and restore replays the lost windows from the source stream exactly
// as the checkpoint subsystem already replays everything after the
// last checkpoint. Durability is only ever claimed at Seal, and Seal
// is ordered before every checkpoint, so a checkpoint's HistoryRef
// always points inside the sealed region.
//
// Log is not safe for concurrent use; the ingest session owning it
// serialises access like it does the merger and the view.
type Log struct {
	dir string
	opt Options
	man Manifest

	// Active (unsealed) tail.
	active      []WindowEntry
	activeStart int // window index of active[0]; == sealed window count
	activeSeq   int // event cursor at activeStart; == sealed seq

	seq      int              // event cursor after the active tail
	endFrame video.FrameIndex // last appended window's End, -1 when none
}

// Open opens (creating if needed) the history log in dir, verifying
// the manifest chain and that every listed segment file exists.
// Leftover temp files from an interrupted seal are removed; segment
// files on disk that the manifest does not list are ignored (they were
// never published and will be overwritten deterministically on reuse
// of their index).
func Open(dir string, opt Options) (*Log, error) {
	if dir == "" {
		return nil, fmt.Errorf("histlog: empty history directory")
	}
	if opt.WindowsPerSegment <= 0 {
		opt.WindowsPerSegment = DefaultWindowsPerSegment
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("histlog: creating history directory: %w", err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range man.Segments {
		if _, err := os.Stat(filepath.Join(dir, s.File)); err != nil {
			return nil, fmt.Errorf("histlog: manifest lists segment %d file %q, but it is unreadable: %w", s.Index, s.File, err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("histlog: listing history directory: %w", err)
	}
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("histlog: removing stale temp file: %w", err)
			}
		}
	}
	l := &Log{dir: dir, opt: opt, man: man, endFrame: -1}
	l.resetCursors()
	return l, nil
}

// resetCursors derives the in-memory cursors from the manifest and an
// empty active tail.
func (l *Log) resetCursors() {
	w, s, f := 0, 0, video.FrameIndex(-1)
	if n := len(l.man.Segments); n > 0 {
		last := l.man.Segments[n-1]
		w, s, f = last.EndWindow, last.EndSeq, last.EndFrame
	}
	l.active = nil
	l.activeStart, l.activeSeq = w, s
	l.seq = s
	l.endFrame = f
}

// Dir returns the history directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// Windows returns the number of committed windows the log covers,
// sealed and active: the window index the next AppendWindow must carry.
func (l *Log) Windows() int { return l.activeStart + len(l.active) }

// Seq returns the event cursor after the last appended window.
func (l *Log) Seq() int { return l.seq }

// SealedWindows returns the number of windows covered by sealed
// segments — the durable prefix a checkpoint may reference.
func (l *Log) SealedWindows() int { return l.activeStart }

// SealedSeq returns the event cursor at the end of the sealed prefix.
// Merge events below this cursor are replayable from segments, so the
// in-memory merger log may be trimmed to it.
func (l *Log) SealedSeq() int { return l.activeSeq }

// EndFrame returns the last appended window's End frame, -1 when the
// log is empty.
func (l *Log) EndFrame() video.FrameIndex { return l.endFrame }

// SealedRawSegments returns how many sealed raw (uncompacted) segments
// the manifest lists — the compaction policy's trigger metric.
func (l *Log) SealedRawSegments() int {
	n := 0
	for _, s := range l.man.Segments {
		if s.Kind == KindRaw {
			n++
		}
	}
	return n
}

// RetentionFrame returns the earliest frame AsOf can cut at: the base
// segment's end frame when history has been compacted, -1 (everything)
// otherwise.
func (l *Log) RetentionFrame() video.FrameIndex {
	if len(l.man.Segments) > 0 && l.man.Segments[0].Kind == KindBase {
		return l.man.Segments[0].EndFrame
	}
	return -1
}

// AppendWindow adds one committed window's feed to the active segment,
// validating the window-index and event-seq chains, and auto-seals
// when the active segment reaches Options.WindowsPerSegment entries.
func (l *Log) AppendWindow(e WindowEntry) error {
	if e.Window.Index != l.Windows() {
		return fmt.Errorf("histlog: log covers %d windows, got window %d", l.Windows(), e.Window.Index)
	}
	seq, err := e.Validate(l.seq)
	if err != nil {
		return err
	}
	if e.Window.End < l.endFrame {
		return fmt.Errorf("histlog: window %d ends at frame %d, before the log's end frame %d", e.Window.Index, e.Window.End, l.endFrame)
	}
	l.active = append(l.active, e)
	l.seq = seq
	l.endFrame = e.Window.End
	if len(l.active) >= l.opt.WindowsPerSegment {
		return l.Seal()
	}
	return nil
}

// Seal makes the active tail durable: the accumulated window entries
// become one sealed raw segment (temp write, then rename) and the
// manifest is atomically republished to list it. Sealing an empty tail
// is a no-op. On error the active tail is kept so the caller may retry.
func (l *Log) Seal() error {
	if len(l.active) == 0 {
		return nil
	}
	hdr := SegmentHeader{
		Format:      SegmentFormat,
		Version:     SegmentVersion,
		Index:       l.man.NextIndex,
		Kind:        KindRaw,
		StartWindow: l.activeStart,
		StartSeq:    l.activeSeq,
	}
	info, err := l.writeSegment(hdr, l.active, nil, SegmentFooter{})
	if err != nil {
		return err
	}
	man := l.man
	man.NextIndex++
	man.Segments = append(append([]SegmentInfo(nil), man.Segments...), info)
	if err := saveManifest(l.dir, &man); err != nil {
		return err
	}
	l.man = man
	l.active = nil
	l.activeStart, l.activeSeq = info.EndWindow, info.EndSeq
	return nil
}

// writeSegment encodes one segment, writes it to a temp file, renames
// it into place, and returns its manifest entry.
func (l *Log) writeSegment(hdr SegmentHeader, entries []WindowEntry, tracks []trackdb.ViewTrack, base SegmentFooter) (SegmentInfo, error) {
	data, ft, err := EncodeSegment(hdr, entries, tracks, base)
	if err != nil {
		return SegmentInfo{}, err
	}
	name := fmt.Sprintf("seg-%06d.ndjson", hdr.Index)
	tmp := filepath.Join(l.dir, name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return SegmentInfo{}, fmt.Errorf("histlog: writing segment %d: %w", hdr.Index, err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, name)); err != nil {
		return SegmentInfo{}, fmt.Errorf("histlog: publishing segment %d: %w", hdr.Index, err)
	}
	return SegmentInfo{
		Index:       hdr.Index,
		Kind:        hdr.Kind,
		File:        name,
		Records:     ft.Records,
		StartWindow: hdr.StartWindow,
		EndWindow:   ft.EndWindow,
		StartSeq:    hdr.StartSeq,
		EndSeq:      ft.EndSeq,
		EndFrame:    ft.EndFrame,
		Checksum:    ft.Checksum,
	}, nil
}

// readSegment loads, decodes, and verifies the segment behind one
// manifest entry, cross-checking the file's identity (header cursors
// and footer checksum) against what the manifest recorded.
func (l *Log) readSegment(info SegmentInfo) (*Segment, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, info.File))
	if err != nil {
		return nil, fmt.Errorf("histlog: reading segment %d: %w", info.Index, err)
	}
	seg, err := DecodeSegment(data)
	if err != nil {
		return nil, err
	}
	if seg.Header.Index != info.Index || seg.Header.Kind != info.Kind ||
		seg.Header.StartWindow != info.StartWindow || seg.Header.StartSeq != info.StartSeq ||
		seg.Footer.Checksum != info.Checksum || seg.Footer.Records != info.Records ||
		seg.Footer.EndWindow != info.EndWindow || seg.Footer.EndSeq != info.EndSeq {
		return nil, fmt.Errorf("histlog: segment file %q does not match its manifest entry (index %d)", info.File, info.Index)
	}
	return seg, nil
}

// applyEntry replays one window entry into a view: extensions first,
// then the window's merge events — the exact order the live session
// fed them.
func applyEntry(v *trackdb.LiveView, e *WindowEntry) error {
	for _, x := range e.Extends {
		if err := v.ExtendCell(x.Track, x.Frame, x.Class, x.CX, x.CY); err != nil {
			return err
		}
	}
	return v.ApplyEvents(e.Events)
}

// ReplayView reconstructs the live view as of upto committed windows
// (-1 for everything the log covers, sealed and active). The result is
// bit-identical — same ViewState — to the view a live session held
// after committing that many windows, which is the subsystem's core
// invariant. Replaying to a point the base segment has compacted past
// fails: that history has been folded.
func (l *Log) ReplayView(upto int) (*trackdb.LiveView, error) {
	if upto < 0 {
		upto = l.Windows()
	}
	if upto > l.Windows() {
		return nil, fmt.Errorf("histlog: replay to window %d, log covers %d", upto, l.Windows())
	}
	view, applied, _, err := l.replay(upto, maxFrame)
	if err != nil {
		return nil, err
	}
	if applied != upto {
		return nil, fmt.Errorf("histlog: replay applied %d windows, want %d", applied, upto)
	}
	return view, nil
}

// AsOf reconstructs the view at the time-travel cut "all windows whose
// End is at or before frame": nearest materialised snapshot (the base
// segment, when one exists) plus raw-segment replay. It returns the
// view and the cut's actual frame — the last applied window's End (or
// the base's end frame), -1 when no window qualifies. Frames before
// the retention boundary (a compacted base's end frame) are refused.
func (l *Log) AsOf(frame video.FrameIndex) (*trackdb.LiveView, video.FrameIndex, error) {
	view, _, cut, err := l.replay(l.Windows(), frame)
	if err != nil {
		return nil, 0, err
	}
	return view, cut, nil
}

// maxFrame is a frame bound no window reaches.
const maxFrame = video.FrameIndex(math.MaxInt)

// replay is the one walk behind ReplayView and AsOf: the base segment's
// view (an empty view when there is none), then the raw segments' and
// the active tail's window entries in order, stopping before the first
// entry past upto windows or ending after frame. It returns the view,
// the windows it covers, and the last covered window's End (-1 when it
// covers none). A cut inside the base segment is refused: that history
// has been folded.
func (l *Log) replay(upto int, frame video.FrameIndex) (*trackdb.LiveView, int, video.FrameIndex, error) {
	view, applied, cut := trackdb.NewLiveView(), 0, video.FrameIndex(-1)
	if len(l.man.Segments) > 0 && l.man.Segments[0].Kind == KindBase {
		info := l.man.Segments[0]
		if info.EndWindow > upto || info.EndFrame > frame {
			return nil, 0, 0, fmt.Errorf("histlog: history before window %d (frame %d) was compacted away", info.EndWindow, info.EndFrame)
		}
		seg, err := l.readSegment(info)
		if err != nil {
			return nil, 0, 0, err
		}
		if view, err = trackdb.RestoreView(trackdb.ViewState{Seq: info.EndSeq, Tracks: seg.Tracks}); err != nil {
			return nil, 0, 0, err
		}
		applied, cut = info.EndWindow, info.EndFrame
	}
	// walk applies entries up to the stop condition and reports whether
	// it was reached. Window ends never decrease along the log, so once
	// it is reached every later entry stops too.
	walk := func(entries []WindowEntry) (bool, error) {
		for i := range entries {
			e := &entries[i]
			if applied >= upto || e.Window.End > frame {
				return true, nil
			}
			if err := applyEntry(view, e); err != nil {
				return true, err
			}
			applied, cut = applied+1, e.Window.End
		}
		return false, nil
	}
	for _, info := range l.man.Segments {
		if info.Kind != KindRaw || applied >= upto {
			continue
		}
		seg, err := l.readSegment(info)
		if err != nil {
			return nil, 0, 0, err
		}
		stop, err := walk(seg.Entries)
		if err != nil {
			return nil, 0, 0, err
		}
		if stop {
			break
		}
	}
	if _, err := walk(l.active); err != nil {
		return nil, 0, 0, err
	}
	view.Flush()
	return view, applied, cut, nil
}

// TruncateTo cuts the log back to exactly windows committed windows and
// event cursor seq — a checkpoint's HistoryRef — for restore: the
// volatile active tail is discarded and sealed segments past the
// reference are unpublished (manifest first, then file removal). The
// reference must land on a seal boundary (checkpoints always do: Seal
// is ordered before Checkpoint) and must not have been compacted past.
func (l *Log) TruncateTo(windows, seq int) error {
	if windows < 0 || seq < 0 {
		return fmt.Errorf("histlog: negative truncation target (windows %d, seq %d)", windows, seq)
	}
	if l.SealedWindows() < windows {
		return fmt.Errorf("histlog: log seals %d windows, checkpoint references %d — history is missing", l.SealedWindows(), windows)
	}
	keep := len(l.man.Segments)
	for keep > 0 && l.man.Segments[keep-1].Kind == KindRaw && l.man.Segments[keep-1].StartWindow >= windows {
		keep--
	}
	kept, dropped := l.man.Segments[:keep], l.man.Segments[keep:]
	w, s := 0, 0
	if keep > 0 {
		last := kept[keep-1]
		w, s = last.EndWindow, last.EndSeq
	}
	if w != windows || s != seq {
		return fmt.Errorf("histlog: checkpoint references window %d seq %d, but sealed segments cut at window %d seq %d", windows, seq, w, s)
	}
	man := l.man
	man.Segments = append([]SegmentInfo(nil), kept...)
	if err := saveManifest(l.dir, &man); err != nil {
		return err
	}
	l.man = man
	l.resetCursors()
	for _, s := range dropped {
		if err := os.Remove(filepath.Join(l.dir, s.File)); err != nil {
			return fmt.Errorf("histlog: removing truncated segment %d: %w", s.Index, err)
		}
	}
	return nil
}

// Reset wipes the log back to empty — a fresh session claiming a
// directory that still holds a previous session's history. The manifest
// is republished first (atomically, listing nothing), then the orphaned
// segment files are deleted; NextIndex survives so file names are never
// reused.
func (l *Log) Reset() error {
	old := l.man.Segments
	man := Manifest{NextIndex: l.man.NextIndex}
	if err := saveManifest(l.dir, &man); err != nil {
		return err
	}
	l.man = man
	l.resetCursors()
	for _, s := range old {
		if err := os.Remove(filepath.Join(l.dir, s.File)); err != nil {
			return fmt.Errorf("histlog: removing old segment %d: %w", s.Index, err)
		}
	}
	return nil
}

// Compact folds every sealed segment — the existing base, if any, plus
// all sealed raw segments — into one new base segment holding the
// materialised view state at the sealed boundary, then republishes the
// manifest and deletes the folded files. The invariant (proved by the
// equivalence tests) is that replay through the compacted log yields
// bit-identical view state and query answers to replay through the
// full one: superseded unions and retracted identities are gone from
// the representation, not from the answer. The active tail is
// untouched. Compacting a log with no sealed raw segments is a no-op.
func (l *Log) Compact() error {
	folds := 0
	for _, s := range l.man.Segments {
		if s.Kind == KindRaw {
			folds++
		}
	}
	if folds == 0 {
		return nil
	}
	view, err := l.ReplayView(l.SealedWindows())
	if err != nil {
		return err
	}
	st := view.State()
	if st.Seq != l.SealedSeq() {
		return fmt.Errorf("histlog: compaction replay ended at seq %d, sealed seq is %d", st.Seq, l.SealedSeq())
	}
	last := l.man.Segments[len(l.man.Segments)-1]
	hdr := SegmentHeader{
		Format:  SegmentFormat,
		Version: SegmentVersion,
		Index:   l.man.NextIndex,
		Kind:    KindBase,
	}
	info, err := l.writeSegment(hdr, nil, st.Tracks, SegmentFooter{
		EndWindow: l.SealedWindows(),
		EndSeq:    l.SealedSeq(),
		EndFrame:  last.EndFrame,
	})
	if err != nil {
		return err
	}
	old := l.man.Segments
	man := Manifest{NextIndex: l.man.NextIndex + 1, Segments: []SegmentInfo{info}}
	if err := saveManifest(l.dir, &man); err != nil {
		return err
	}
	l.man = man
	for _, s := range old {
		if err := os.Remove(filepath.Join(l.dir, s.File)); err != nil {
			return fmt.Errorf("histlog: removing compacted segment %d: %w", s.Index, err)
		}
	}
	return nil
}

// LoadColdTrack reconstructs one canonical track's full cell set from
// sealed segments and the active tail: the base segment's cells for
// any member group folded there, overlaid with every journaled
// extension of the group's members, folded by trackdb.GroupCells under
// the LiveView's contested-frame rule, so the result is exactly the
// ViewTrack a never-evicting view would serialise for this group.
// members must be the group's complete raw-member set (the view keeps
// it even for cold identities).
func (l *Log) LoadColdTrack(canon video.TrackID, members []video.TrackID) (trackdb.ViewTrack, error) {
	want := make(map[video.TrackID]bool, len(members))
	for _, m := range members {
		want[m] = true
	}
	var g trackdb.GroupCells
	for _, info := range l.man.Segments {
		seg, err := l.readSegment(info)
		if err != nil {
			return trackdb.ViewTrack{}, err
		}
		switch info.Kind {
		case KindBase:
			for i := range seg.Tracks {
				t := &seg.Tracks[i]
				if !want[t.ID] {
					continue
				}
				for _, c := range t.Cells {
					g.Add(c)
				}
			}
		case KindRaw:
			for i := range seg.Entries {
				addExtends(&g, &seg.Entries[i], want)
			}
		}
	}
	for i := range l.active {
		addExtends(&g, &l.active[i], want)
	}
	vt := g.ViewTrack(canon, members)
	if len(vt.Cells) == 0 {
		return trackdb.ViewTrack{}, fmt.Errorf("histlog: track %d has no cells anywhere in history", canon)
	}
	return vt, nil
}

// addExtends adds one entry's extensions of wanted members to g.
func addExtends(g *trackdb.GroupCells, e *WindowEntry, want map[video.TrackID]bool) {
	for _, x := range e.Extends {
		if want[x.Track] {
			g.Add(trackdb.ViewCell{Frame: x.Frame, Member: x.Track, Class: x.Class, CX: x.CX, CY: x.CY})
		}
	}
}
