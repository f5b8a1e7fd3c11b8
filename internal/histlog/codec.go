package histlog

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// The segment line codec. A segment line is the bytes json.Marshal
// writes for a SegmentHeader, WindowEntry, trackdb.ViewTrack or
// SegmentFooter: fields in declaration order under their tag names,
// omitempty fields left out when zero, nil slices as null, floats in
// encoding/json's shortest spelling, no whitespace. The append
// functions write those bytes by hand, and lineReader parses exactly
// them: another key order or spelling, whitespace, an escape, another
// spelling of a number, or an omitempty field written out empty is
// refused as malformed, as checkpoint's envelope parser refuses any
// layout but its own. encoding/json is the oracle both are tested
// against. Strings are written and read only where they need no
// escaping (the format, the kind and the hex checksum).

// appendFloat appends f as encoding/json spells a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21,
// with a one-digit negative exponent not padded. f must be finite.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

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
		dst = appendFloat(dst, x.CX)
		dst = append(dst, `,"cy":`...)
		dst = appendFloat(dst, x.CY)
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
			dst = appendFloat(dst, c.CX)
			dst = append(dst, `,"cy":`...)
			dst = appendFloat(dst, c.CY)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// lineReader parses one segment line (without its newline). The first
// mismatch sticks: later reads return zero values, and err names the
// byte offset and what was expected there.
type lineReader struct {
	b    []byte
	size int
	err  error
	num  [32]byte // the canonical spelling of the float just read
}

func newLineReader(line []byte) lineReader { return lineReader{b: line, size: len(line)} }

func (r *lineReader) fail(want string) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed line at byte %d: want %s", r.size-len(r.b), want)
	}
	r.b = nil
}

// lit consumes s, which must come next.
func (r *lineReader) lit(s string) {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		r.fail(strconv.Quote(s))
		return
	}
	r.b = r.b[len(s):]
}

// opt consumes s if it comes next, and reports whether it did.
func (r *lineReader) opt(s string) bool {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// end checks that the line is used up.
func (r *lineReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("the end of the line")
	}
	return r.err
}

// int reads an integer in its canonical spelling: an optional '-', no
// leading zeros, no "-0", within int64.
func (r *lineReader) int() int {
	b := r.b
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9' && i-start < 19; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	digits, neg := i-start, start == 1
	if digits == 0 || i < len(b) && b[i] >= '0' && b[i] <= '9' || digits > 1 && b[start] == '0' ||
		neg && v == 0 || v > math.MaxInt64+uint64(start) {
		r.fail("a canonical integer")
		return 0
	}
	r.b = b[i:]
	if neg {
		return int(-int64(v-1) - 1)
	}
	return int(v)
}

// nonzero reads an integer that an omitempty field only writes when it
// is not zero.
func (r *lineReader) nonzero() int {
	v := r.int()
	if v == 0 && r.err == nil {
		r.fail("a nonzero integer (a zero omitempty field is left out)")
	}
	return v
}

// float reads a float in encoding/json's spelling (see appendFloat).
func (r *lineReader) float() float64 {
	i := 0
	for ; i < len(r.b); i++ {
		if c := r.b[i]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	tok := r.b[:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || !bytes.Equal(appendFloat(r.num[:0], f), tok) {
		r.fail("a canonical float")
		return 0
	}
	r.b = r.b[i:]
	return f
}

// str reads a string that needs no escaping in JSON: printable ASCII
// other than '"', '\\', '<', '>' and '&' (which json.Marshal escapes).
func (r *lineReader) str() string {
	if len(r.b) == 0 || r.b[0] != '"' {
		r.fail("a string")
		return ""
	}
	for i := 1; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			s := string(r.b[1:i])
			r.b = r.b[i+1:]
			return s
		case c < 0x20 || c >= 0x7f || c == '\\' || c == '<' || c == '>' || c == '&':
			r.b = r.b[i:]
			r.fail("a string of printable ASCII that needs no escaping")
			return ""
		}
	}
	r.fail("a closing quote")
	return ""
}

func readHeader(line []byte, h *SegmentHeader) error {
	r := newLineReader(line)
	r.lit(`{"format":`)
	h.Format = r.str()
	r.lit(`,"version":`)
	h.Version = r.int()
	r.lit(`,"index":`)
	h.Index = r.int()
	r.lit(`,"kind":`)
	h.Kind = r.str()
	r.lit(`,"start_window":`)
	h.StartWindow = r.int()
	r.lit(`,"start_seq":`)
	h.StartSeq = r.int()
	r.lit(`}`)
	return r.end()
}

func readFooter(line []byte, f *SegmentFooter) error {
	r := newLineReader(line)
	r.lit(`{"records":`)
	f.Records = r.int()
	r.lit(`,"end_window":`)
	f.EndWindow = r.int()
	r.lit(`,"end_seq":`)
	f.EndSeq = r.int()
	r.lit(`,"end_frame":`)
	f.EndFrame = video.FrameIndex(r.int())
	r.lit(`,"checksum":`)
	f.Checksum = r.str()
	r.lit(`}`)
	return r.end()
}

func readEntry(line []byte, e *WindowEntry) error {
	r := newLineReader(line)
	r.lit(`{"window":{"Index":`)
	e.Window.Index = r.int()
	r.lit(`,"Start":`)
	e.Window.Start = video.FrameIndex(r.int())
	r.lit(`,"End":`)
	e.Window.End = video.FrameIndex(r.int())
	r.lit(`,"Nominal":`)
	e.Window.Nominal = r.int()
	r.lit(`}`)
	if r.opt(`,"extends":[`) {
		e.Extends = make([]Extend, 0, bytes.Count(r.b, []byte(`{"track":`)))
		for more := true; more && r.err == nil; more = r.opt(`,`) {
			var x Extend
			r.lit(`{"track":`)
			x.Track = video.TrackID(r.int())
			r.lit(`,"frame":`)
			x.Frame = video.FrameIndex(r.int())
			r.lit(`,"cx":`)
			x.CX = r.float()
			r.lit(`,"cy":`)
			x.CY = r.float()
			if r.opt(`,"class":`) {
				x.Class = video.ClassID(r.nonzero())
			}
			r.lit(`}`)
			e.Extends = append(e.Extends, x)
		}
		r.lit(`]`)
	}
	if r.opt(`,"events":[`) {
		e.Events = make([]core.MergeEvent, 0, bytes.Count(r.b, []byte(`{"seq":`)))
		for more := true; more && r.err == nil; more = r.opt(`,`) {
			var ev core.MergeEvent
			r.lit(`{"seq":`)
			ev.Seq = r.int()
			r.lit(`,"pair":{"A":`)
			ev.Pair.A = video.TrackID(r.int())
			r.lit(`,"B":`)
			ev.Pair.B = video.TrackID(r.int())
			r.lit(`},"from_a":`)
			ev.FromA = video.TrackID(r.int())
			r.lit(`,"from_b":`)
			ev.FromB = video.TrackID(r.int())
			r.lit(`,"canon":`)
			ev.Canon = video.TrackID(r.int())
			r.lit(`}`)
			e.Events = append(e.Events, ev)
		}
		r.lit(`]`)
	}
	r.lit(`}`)
	return r.end()
}

func readViewTrack(line []byte, t *trackdb.ViewTrack) error {
	r := newLineReader(line)
	r.lit(`{"id":`)
	t.ID = video.TrackID(r.int())
	r.lit(`,"members":`)
	if !r.opt(`null`) {
		r.lit(`[`)
		t.Members = []video.TrackID{}
		if !r.opt(`]`) {
			t.Members = make([]video.TrackID, 0, 1+bytes.Count(r.b[:max(bytes.IndexByte(r.b, ']'), 0)], []byte{','}))
			for more := true; more && r.err == nil; more = r.opt(`,`) {
				t.Members = append(t.Members, video.TrackID(r.int()))
			}
			r.lit(`]`)
		}
	}
	r.lit(`,"cells":`)
	if !r.opt(`null`) {
		r.lit(`[`)
		t.Cells = []trackdb.ViewCell{}
		if !r.opt(`]`) {
			t.Cells = make([]trackdb.ViewCell, 0, bytes.Count(r.b, []byte(`{"frame":`)))
			for more := true; more && r.err == nil; more = r.opt(`,`) {
				var c trackdb.ViewCell
				r.lit(`{"frame":`)
				c.Frame = video.FrameIndex(r.int())
				r.lit(`,"member":`)
				c.Member = video.TrackID(r.int())
				if r.opt(`,"class":`) {
					c.Class = video.ClassID(r.nonzero())
				}
				r.lit(`,"cx":`)
				c.CX = r.float()
				r.lit(`,"cy":`)
				c.CY = r.float()
				r.lit(`}`)
				t.Cells = append(t.Cells, c)
			}
			r.lit(`]`)
		}
	}
	r.lit(`}`)
	return r.end()
}
