package histlog

import (
	"bytes"
	"strconv"

	"github.com/tmerge/tmerge/internal/canon"
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// The segment line codec. A segment line is the bytes json.Marshal
// writes for a SegmentHeader, WindowEntry, trackdb.ViewTrack or
// SegmentFooter, spelled by internal/canon's rule (nil slices as null
// besides): the append functions write those bytes by hand through
// canon.AppendFloat, and the read functions parse exactly them with a
// canon.Reader, which refuses any other layout or spelling as
// malformed. encoding/json is the oracle both are tested against.
// Strings are written and read only where they need no escaping (the
// format, the kind and the hex checksum).

func appendInt(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

func appendHeader(dst []byte, h *SegmentHeader) []byte {
	dst = append(dst, `{"format":"`...)
	dst = append(dst, h.Format...)
	dst = append(dst, `","version":`...)
	dst = appendInt(dst, h.Version)
	dst = append(dst, `,"index":`...)
	dst = appendInt(dst, h.Index)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, h.Kind...)
	dst = append(dst, `","start_window":`...)
	dst = appendInt(dst, h.StartWindow)
	dst = append(dst, `,"start_seq":`...)
	dst = appendInt(dst, h.StartSeq)
	return append(dst, "}\n"...)
}

func appendFooter(dst []byte, f *SegmentFooter) []byte {
	dst = append(dst, `{"records":`...)
	dst = appendInt(dst, f.Records)
	dst = append(dst, `,"end_window":`...)
	dst = appendInt(dst, f.EndWindow)
	dst = append(dst, `,"end_seq":`...)
	dst = appendInt(dst, f.EndSeq)
	dst = append(dst, `,"end_frame":`...)
	dst = appendInt(dst, int(f.EndFrame))
	dst = append(dst, `,"checksum":"`...)
	dst = append(dst, f.Checksum...)
	return append(dst, "\"}\n"...)
}

// appendEntry appends a validated entry's line.
func appendEntry(dst []byte, e *WindowEntry) []byte {
	w := e.Window
	dst = append(dst, `{"window":{"Index":`...)
	dst = appendInt(dst, w.Index)
	dst = append(dst, `,"Start":`...)
	dst = appendInt(dst, int(w.Start))
	dst = append(dst, `,"End":`...)
	dst = appendInt(dst, int(w.End))
	dst = append(dst, `,"Nominal":`...)
	dst = appendInt(dst, w.Nominal)
	dst = append(dst, '}')
	for i, x := range e.Extends {
		if i == 0 {
			dst = append(dst, `,"extends":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"track":`...)
		dst = appendInt(dst, int(x.Track))
		dst = append(dst, `,"frame":`...)
		dst = appendInt(dst, int(x.Frame))
		dst = append(dst, `,"cx":`...)
		dst = canon.AppendFloat(dst, x.CX)
		dst = append(dst, `,"cy":`...)
		dst = canon.AppendFloat(dst, x.CY)
		if x.Class != 0 {
			dst = append(dst, `,"class":`...)
			dst = appendInt(dst, int(x.Class))
		}
		dst = append(dst, '}')
	}
	if len(e.Extends) > 0 {
		dst = append(dst, ']')
	}
	for i, ev := range e.Events {
		if i == 0 {
			dst = append(dst, `,"events":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"seq":`...)
		dst = appendInt(dst, ev.Seq)
		dst = append(dst, `,"pair":{"A":`...)
		dst = appendInt(dst, int(ev.Pair.A))
		dst = append(dst, `,"B":`...)
		dst = appendInt(dst, int(ev.Pair.B))
		dst = append(dst, `},"from_a":`...)
		dst = appendInt(dst, int(ev.FromA))
		dst = append(dst, `,"from_b":`...)
		dst = appendInt(dst, int(ev.FromB))
		dst = append(dst, `,"canon":`...)
		dst = appendInt(dst, int(ev.Canon))
		dst = append(dst, '}')
	}
	if len(e.Events) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendViewTrack appends a base record's line; its cell centers must be
// finite.
func appendViewTrack(dst []byte, t *trackdb.ViewTrack) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendInt(dst, int(t.ID))
	dst = append(dst, `,"members":`...)
	if t.Members == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range t.Members {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, int(m))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"cells":`...)
	if t.Cells == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range t.Cells {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"frame":`...)
			dst = appendInt(dst, int(c.Frame))
			dst = append(dst, `,"member":`...)
			dst = appendInt(dst, int(c.Member))
			if c.Class != 0 {
				dst = append(dst, `,"class":`...)
				dst = appendInt(dst, int(c.Class))
			}
			dst = append(dst, `,"cx":`...)
			dst = canon.AppendFloat(dst, c.CX)
			dst = append(dst, `,"cy":`...)
			dst = canon.AppendFloat(dst, c.CY)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

func readHeader(line []byte, h *SegmentHeader) error {
	r := canon.NewReader(line)
	r.Lit(`{"format":`)
	h.Format = r.Str()
	r.Lit(`,"version":`)
	h.Version = r.Int()
	r.Lit(`,"index":`)
	h.Index = r.Int()
	r.Lit(`,"kind":`)
	h.Kind = r.Str()
	r.Lit(`,"start_window":`)
	h.StartWindow = r.Int()
	r.Lit(`,"start_seq":`)
	h.StartSeq = r.Int()
	r.Lit(`}`)
	return r.End()
}

func readFooter(line []byte, f *SegmentFooter) error {
	r := canon.NewReader(line)
	r.Lit(`{"records":`)
	f.Records = r.Int()
	r.Lit(`,"end_window":`)
	f.EndWindow = r.Int()
	r.Lit(`,"end_seq":`)
	f.EndSeq = r.Int()
	r.Lit(`,"end_frame":`)
	f.EndFrame = video.FrameIndex(r.Int())
	r.Lit(`,"checksum":`)
	f.Checksum = r.Str()
	r.Lit(`}`)
	return r.End()
}

func readEntry(line []byte, e *WindowEntry) error {
	r := canon.NewReader(line)
	r.Lit(`{"window":{"Index":`)
	e.Window.Index = r.Int()
	r.Lit(`,"Start":`)
	e.Window.Start = video.FrameIndex(r.Int())
	r.Lit(`,"End":`)
	e.Window.End = video.FrameIndex(r.Int())
	r.Lit(`,"Nominal":`)
	e.Window.Nominal = r.Int()
	r.Lit(`}`)
	if r.Opt(`,"extends":[`) {
		e.Extends = make([]Extend, 0, bytes.Count(r.Rest(), []byte(`{"track":`)))
		for more := true; more && r.Err() == nil; more = r.Opt(`,`) {
			var x Extend
			r.Lit(`{"track":`)
			x.Track = video.TrackID(r.Int())
			r.Lit(`,"frame":`)
			x.Frame = video.FrameIndex(r.Int())
			r.Lit(`,"cx":`)
			x.CX = r.Float()
			r.Lit(`,"cy":`)
			x.CY = r.Float()
			if r.Opt(`,"class":`) {
				x.Class = video.ClassID(r.Nonzero())
			}
			r.Lit(`}`)
			e.Extends = append(e.Extends, x)
		}
		r.Lit(`]`)
	}
	if r.Opt(`,"events":[`) {
		e.Events = make([]core.MergeEvent, 0, bytes.Count(r.Rest(), []byte(`{"seq":`)))
		for more := true; more && r.Err() == nil; more = r.Opt(`,`) {
			var ev core.MergeEvent
			r.Lit(`{"seq":`)
			ev.Seq = r.Int()
			r.Lit(`,"pair":{"A":`)
			ev.Pair.A = video.TrackID(r.Int())
			r.Lit(`,"B":`)
			ev.Pair.B = video.TrackID(r.Int())
			r.Lit(`},"from_a":`)
			ev.FromA = video.TrackID(r.Int())
			r.Lit(`,"from_b":`)
			ev.FromB = video.TrackID(r.Int())
			r.Lit(`,"canon":`)
			ev.Canon = video.TrackID(r.Int())
			r.Lit(`}`)
			e.Events = append(e.Events, ev)
		}
		r.Lit(`]`)
	}
	r.Lit(`}`)
	return r.End()
}

func readViewTrack(line []byte, t *trackdb.ViewTrack) error {
	r := canon.NewReader(line)
	r.Lit(`{"id":`)
	t.ID = video.TrackID(r.Int())
	r.Lit(`,"members":`)
	if !r.Opt(`null`) {
		r.Lit(`[`)
		t.Members = []video.TrackID{}
		if !r.Opt(`]`) {
			t.Members = make([]video.TrackID, 0, 1+bytes.Count(r.Rest()[:max(bytes.IndexByte(r.Rest(), ']'), 0)], []byte{','}))
			for more := true; more && r.Err() == nil; more = r.Opt(`,`) {
				t.Members = append(t.Members, video.TrackID(r.Int()))
			}
			r.Lit(`]`)
		}
	}
	r.Lit(`,"cells":`)
	if !r.Opt(`null`) {
		r.Lit(`[`)
		t.Cells = []trackdb.ViewCell{}
		if !r.Opt(`]`) {
			t.Cells = make([]trackdb.ViewCell, 0, bytes.Count(r.Rest(), []byte(`{"frame":`)))
			for more := true; more && r.Err() == nil; more = r.Opt(`,`) {
				var c trackdb.ViewCell
				r.Lit(`{"frame":`)
				c.Frame = video.FrameIndex(r.Int())
				r.Lit(`,"member":`)
				c.Member = video.TrackID(r.Int())
				if r.Opt(`,"class":`) {
					c.Class = video.ClassID(r.Nonzero())
				}
				r.Lit(`,"cx":`)
				c.CX = r.Float()
				r.Lit(`,"cy":`)
				c.CY = r.Float()
				r.Lit(`}`)
				t.Cells = append(t.Cells, c)
			}
			r.Lit(`]`)
		}
	}
	r.Lit(`}`)
	return r.End()
}
