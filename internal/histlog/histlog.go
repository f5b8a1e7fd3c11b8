// Package histlog implements the log-structured on-disk history of a
// merge session: segmented, checksummed NDJSON log files holding the
// per-window view feed (track extensions plus ordered merge events), a
// sealed-segment manifest wrapped in the checkpoint envelope, a
// compactor that folds sealed segments into a materialised base
// snapshot, and replay — full, as-of-frame, and per-track — that
// reconstructs trackdb.LiveView state bit-identically to the live
// session's.
//
// A segment file is one header line, zero or more record lines, and one
// footer line, all NDJSON. The footer carries the record count and a
// hex SHA-256 over the exact record bytes, so a truncated, bit-flipped,
// or concatenated file is rejected wholesale — the checkpoint envelope's
// all-or-nothing guarantee, restated for streaming appends: a segment
// without a valid footer was never sealed and does not exist as far as
// replay is concerned. Raw segments hold WindowEntry records (one per
// committed window); base segments hold trackdb.ViewTrack records (the
// folded view state at a window boundary). Every line is the bytes
// json.Marshal writes for its record, written and read by hand under
// internal/canon's spelling rule (codec.go).
package histlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

const (
	// SegmentFormat is the header's format discriminator.
	SegmentFormat = "tmerge/histseg"
	// SegmentVersion is the segment schema version; readers refuse other
	// versions before looking at any record.
	SegmentVersion = 1

	// KindRaw marks a segment of per-window WindowEntry records.
	KindRaw = "raw"
	// KindBase marks a compacted segment of ViewTrack records — the
	// materialised view state covering every window before its footer's
	// EndWindow.
	KindBase = "base"

	// maxLineBytes caps one NDJSON line of a segment file. Raw records
	// hold one window's feed and base records one canonical track; both
	// are far below this on any sane input, and the cap keeps a hostile
	// or corrupt file from ballooning the decoder.
	maxLineBytes = 16 << 20
)

// Extend is one track-extension record of the view feed: raw track
// Track gained the box of frame Frame with center (CX, CY) and class
// Class — exactly the fields trackdb.LiveView folds per box, so the
// journal stays compact (appearance observations never touch disk).
type Extend struct {
	Track video.TrackID    `json:"track"`
	Frame video.FrameIndex `json:"frame"`
	CX    float64          `json:"cx"`
	CY    float64          `json:"cy"`
	Class video.ClassID    `json:"class,omitempty"`
}

// WindowEntry is one committed window's slice of the view feed: the
// window itself (a marker even when nothing changed — it keeps the
// replay chain contiguous and is an AsOf cut point), the track
// extensions fed before the window's merges, and the window's ordered
// merge events.
type WindowEntry struct {
	Window  video.Window      `json:"window"`
	Extends []Extend          `json:"extends,omitempty"`
	Events  []core.MergeEvent `json:"events,omitempty"`
}

// SegmentHeader is a segment file's first line.
type SegmentHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Index is the segment's position in the log's allocation order.
	Index int `json:"index"`
	// Kind is KindRaw or KindBase.
	Kind string `json:"kind"`
	// StartWindow and StartSeq are the window index and merge-event
	// cursor the segment's first record continues from (both 0 for a
	// base segment, which folds history from the beginning).
	StartWindow int `json:"start_window"`
	StartSeq    int `json:"start_seq"`
}

// SegmentFooter is a segment file's last line: the seal. EndWindow and
// EndSeq are exclusive (the window index and event cursor the *next*
// segment continues from); EndFrame is the last covered window's End —
// the earliest frame an AsOf served from segments after this one can
// cut at. Checksum is the hex SHA-256 of the record lines' exact bytes.
type SegmentFooter struct {
	Records   int              `json:"records"`
	EndWindow int              `json:"end_window"`
	EndSeq    int              `json:"end_seq"`
	EndFrame  video.FrameIndex `json:"end_frame"`
	Checksum  string           `json:"checksum"`
}

// Segment is one fully decoded, verified segment. Entries is populated
// for raw segments, Tracks for base segments.
type Segment struct {
	Header  SegmentHeader
	Entries []WindowEntry
	Tracks  []trackdb.ViewTrack
	Footer  SegmentFooter
}

// validateExtend checks one extension record's self-contained
// invariants against its window.
func validateExtend(x Extend, w video.Window) error {
	if x.Track < 0 {
		return fmt.Errorf("histlog: extension has negative track id %d", x.Track)
	}
	if x.Frame < 0 || x.Frame > w.End {
		return fmt.Errorf("histlog: extension of track %d at frame %d outside window ending at %d", x.Track, x.Frame, w.End)
	}
	if x.Class < 0 {
		return fmt.Errorf("histlog: extension of track %d has negative class %d", x.Track, x.Class)
	}
	for _, v := range [2]float64{x.CX, x.CY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("histlog: extension of track %d has non-finite center", x.Track)
		}
	}
	return nil
}

// Validate checks the entry's self-contained invariants, with seq the
// event cursor the entry must continue from. It returns the cursor
// after the entry's events.
func (e *WindowEntry) Validate(seq int) (int, error) {
	if e.Window.Index < 0 || e.Window.Start < 0 || e.Window.End < e.Window.Start {
		return 0, fmt.Errorf("histlog: window entry %d has invalid bounds [%d, %d]", e.Window.Index, e.Window.Start, e.Window.End)
	}
	for _, x := range e.Extends {
		if err := validateExtend(x, e.Window); err != nil {
			return 0, err
		}
	}
	for _, ev := range e.Events {
		if err := ev.Validate(); err != nil {
			return 0, fmt.Errorf("histlog: window entry %d: %w", e.Window.Index, err)
		}
		if ev.Seq != seq {
			return 0, fmt.Errorf("histlog: window entry %d has event seq %d, cursor is %d", e.Window.Index, ev.Seq, seq)
		}
		seq++
	}
	return seq, nil
}

// EncodeSegment serialises a sealed segment: header, the given records
// (raw entries or base tracks per hdr.Kind), and a footer computed over
// the record bytes. The footer's end cursors are derived from the
// records themselves; base segments take them from base (the folded
// view's cursors), since track records carry no window information.
// Only this build's format and version are written.
func EncodeSegment(hdr SegmentHeader, entries []WindowEntry, tracks []trackdb.ViewTrack, base SegmentFooter) ([]byte, SegmentFooter, error) {
	if hdr.Format != SegmentFormat || hdr.Version != SegmentVersion {
		return nil, SegmentFooter{}, fmt.Errorf("histlog: cannot encode segment format %q version %d (this build writes %q version %d)",
			hdr.Format, hdr.Version, SegmentFormat, SegmentVersion)
	}
	buf := appendHeader(nil, &hdr)
	recs := len(buf)
	var ft SegmentFooter
	switch hdr.Kind {
	case KindRaw:
		seq := hdr.StartSeq
		endFrame := video.FrameIndex(-1)
		for i := range entries {
			e := &entries[i]
			var err error
			if seq, err = e.Validate(seq); err != nil {
				return nil, SegmentFooter{}, err
			}
			buf = appendEntry(buf, e)
			endFrame = e.Window.End
		}
		ft = SegmentFooter{
			Records:   len(entries),
			EndWindow: hdr.StartWindow + len(entries),
			EndSeq:    seq,
			EndFrame:  endFrame,
		}
	case KindBase:
		for i := range tracks {
			t := &tracks[i]
			for _, c := range t.Cells {
				if math.IsNaN(c.CX) || math.IsInf(c.CX, 0) || math.IsNaN(c.CY) || math.IsInf(c.CY, 0) {
					return nil, SegmentFooter{}, fmt.Errorf("histlog: base track %d has a non-finite center at frame %d", t.ID, c.Frame)
				}
			}
			buf = appendViewTrack(buf, t)
		}
		ft = SegmentFooter{
			Records:   len(tracks),
			EndWindow: base.EndWindow,
			EndSeq:    base.EndSeq,
			EndFrame:  base.EndFrame,
		}
	default:
		return nil, SegmentFooter{}, fmt.Errorf("histlog: unknown segment kind %q", hdr.Kind)
	}
	sum := sha256.Sum256(buf[recs:])
	ft.Checksum = hex.EncodeToString(sum[:])
	return appendFooter(buf, &ft), ft, nil
}

// splitLines cuts data into newline-terminated lines, enforcing the
// per-line cap and requiring a trailing newline (a file not ending in
// one was truncated mid-line).
func splitLines(data []byte) ([][]byte, error) {
	var lines [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return nil, fmt.Errorf("histlog: segment truncated mid-line (no trailing newline)")
		}
		if i > maxLineBytes {
			return nil, fmt.Errorf("histlog: segment line exceeds %d bytes", maxLineBytes)
		}
		lines = append(lines, data[:i])
		data = data[i+1:]
	}
	return lines, nil
}

// DecodeSegment decodes and fully verifies one segment file: header
// format and version, per-record invariants (window and event-cursor
// chains for raw segments, ascending track IDs for base segments), and
// the footer's counts, cursors, and checksum over the exact record
// bytes. Any violation rejects the whole segment — replay never sees a
// partially valid one.
func DecodeSegment(data []byte) (*Segment, error) {
	lines, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("histlog: segment has %d lines, need header and footer", len(lines))
	}
	seg := &Segment{}
	if err := readHeader(lines[0], &seg.Header); err != nil {
		return nil, fmt.Errorf("histlog: segment header does not decode: %w", err)
	}
	hdr := seg.Header
	if hdr.Format != SegmentFormat {
		return nil, fmt.Errorf("histlog: segment format %q, want %q", hdr.Format, SegmentFormat)
	}
	if hdr.Version != SegmentVersion {
		return nil, fmt.Errorf("histlog: unsupported segment version %d (this build reads version %d)", hdr.Version, SegmentVersion)
	}
	if hdr.Index < 0 || hdr.StartWindow < 0 || hdr.StartSeq < 0 {
		return nil, fmt.Errorf("histlog: segment %d has negative cursors (window %d, seq %d)", hdr.Index, hdr.StartWindow, hdr.StartSeq)
	}
	if hdr.Kind == KindBase && (hdr.StartWindow != 0 || hdr.StartSeq != 0) {
		return nil, fmt.Errorf("histlog: base segment %d must start at window 0, seq 0", hdr.Index)
	}
	if err := readFooter(lines[len(lines)-1], &seg.Footer); err != nil {
		return nil, fmt.Errorf("histlog: segment footer does not decode: %w", err)
	}
	recs := lines[1 : len(lines)-1]
	if seg.Footer.Records != len(recs) {
		return nil, fmt.Errorf("histlog: segment %d footer records %d, file holds %d", hdr.Index, seg.Footer.Records, len(recs))
	}

	// The record lines are contiguous in data, newlines included.
	sum := sha256.Sum256(data[len(lines[0])+1 : len(data)-len(lines[len(lines)-1])-1])
	if got := hex.EncodeToString(sum[:]); got != seg.Footer.Checksum {
		return nil, fmt.Errorf("histlog: segment %d record checksum mismatch (got %s, recorded %s): segment is corrupt", hdr.Index, got, seg.Footer.Checksum)
	}

	switch hdr.Kind {
	case KindRaw:
		seq := hdr.StartSeq
		endFrame := video.FrameIndex(-1)
		seg.Entries = make([]WindowEntry, 0, len(recs))
		for i, r := range recs {
			var e WindowEntry
			if err := readEntry(r, &e); err != nil {
				return nil, fmt.Errorf("histlog: segment %d record %d does not decode: %w", hdr.Index, i, err)
			}
			if e.Window.Index != hdr.StartWindow+i {
				return nil, fmt.Errorf("histlog: segment %d record %d holds window %d, want %d", hdr.Index, i, e.Window.Index, hdr.StartWindow+i)
			}
			seq, err = e.Validate(seq)
			if err != nil {
				return nil, fmt.Errorf("histlog: segment %d record %d: %w", hdr.Index, i, err)
			}
			if e.Window.End < endFrame {
				return nil, fmt.Errorf("histlog: segment %d record %d window end %d regressed below %d", hdr.Index, i, e.Window.End, endFrame)
			}
			endFrame = e.Window.End
			seg.Entries = append(seg.Entries, e)
		}
		if seg.Footer.EndWindow != hdr.StartWindow+len(recs) {
			return nil, fmt.Errorf("histlog: segment %d footer end window %d, records end at %d", hdr.Index, seg.Footer.EndWindow, hdr.StartWindow+len(recs))
		}
		if seg.Footer.EndSeq != seq {
			return nil, fmt.Errorf("histlog: segment %d footer end seq %d, records end at %d", hdr.Index, seg.Footer.EndSeq, seq)
		}
		if seg.Footer.EndFrame != endFrame {
			return nil, fmt.Errorf("histlog: segment %d footer end frame %d, records end at %d", hdr.Index, seg.Footer.EndFrame, endFrame)
		}
	case KindBase:
		if seg.Footer.EndWindow < 0 || seg.Footer.EndSeq < 0 {
			return nil, fmt.Errorf("histlog: base segment %d has negative end cursors", hdr.Index)
		}
		seg.Tracks = make([]trackdb.ViewTrack, 0, len(recs))
		var prev video.TrackID = -1
		for i, r := range recs {
			var t trackdb.ViewTrack
			if err := readViewTrack(r, &t); err != nil {
				return nil, fmt.Errorf("histlog: segment %d record %d does not decode: %w", hdr.Index, i, err)
			}
			if t.ID <= prev {
				return nil, fmt.Errorf("histlog: base segment %d track IDs not strictly ascending at %d", hdr.Index, t.ID)
			}
			prev = t.ID
			seg.Tracks = append(seg.Tracks, t)
		}
	default:
		return nil, fmt.Errorf("histlog: unknown segment kind %q", hdr.Kind)
	}
	return seg, nil
}
