package ingress

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/tmerge/tmerge/internal/canon"
	"github.com/tmerge/tmerge/internal/video"
)

// The push codec is written by hand for the one fixed shape it carries:
// a PushRecord, its video.BBoxes (untagged, so keyed by Go field name),
// their geom.Rect and their Obs vector. DESIGN.md §13 gives the grammar.
// Obs has two spellings: an array of numbers, or a string of base64
// float64 bits, which is what the encoder writes. The decoder accepts a
// subset of what encoding/json.Unmarshal accepts into a mirror of
// PushRecord whose Obs takes either spelling, and yields the same
// record for it; the encoder writes the bytes json.Encoder writes for
// that mirror with Obs as []byte. wire_test.go holds encoding/json as
// the oracle for both.

// maxNestingDepth is encoding/json's nesting bound: a value nested
// deeper than this, counting the record's own object, is refused.
const maxNestingDepth = 10000

// Field indices, per object kind, for the duplicate-key mask.
const (
	fieldSeq = iota
	fieldFrame
	fieldDets
)

const (
	fieldID = iota
	fieldDetFrame
	fieldRect
	fieldObs
	fieldClass
	fieldGTObject
)

var (
	recordFields = []string{fieldSeq: "seq", fieldFrame: "frame", fieldDets: "dets"}
	bboxFields   = []string{fieldID: "ID", fieldDetFrame: "Frame", fieldRect: "Rect", fieldObs: "Obs", fieldClass: "Class", fieldGTObject: "GTObject"}
	rectFields   = []string{"X", "Y", "W", "H"}
)

// pushDecoder is one DecodePushBatch call's state, pooled across calls:
// the line buffer, and scratch that a record's detections and a
// detection's observation are parsed into before being copied out at
// their exact lengths.
type pushDecoder struct {
	// Line reading: buf[start:end] is unconsumed input, of which
	// buf[start:scan] holds no newline; rerr is the reader's error,
	// reported once the buffered input is used up.
	buf              []byte
	start, scan, end int
	rerr             error
	empties          int
	dets             []video.BBox
	obs              []float64
	bits             []byte // a base64 Obs, decoded
	key              []byte // the last escaped string, unescaped
	data             []byte // the line being parsed
	pos              int
}

var decoders = sync.Pool{New: func() any { return new(pushDecoder) }}

// release resets d for the next call and returns it to the pool.
func (d *pushDecoder) release() {
	clear(d.dets)
	d.start, d.scan, d.end, d.rerr, d.empties = 0, 0, 0, nil, 0
	d.data = nil
	decoders.Put(d)
}

// errLineTooLong reports a line that does not fit in maxLine bytes with
// its newline.
var errLineTooLong = errors.New("line too long")

// readLine returns the next line of r without its "\n" or "\r\n", as
// bufio.ScanLines splits: a final line without a newline still counts,
// and so does the partial line before a read error. At the end of
// input it returns ok false and the reader's error (nil for io.EOF).
func (d *pushDecoder) readLine(r io.Reader, maxLine int) (line []byte, ok bool, err error) {
	for {
		if i := bytes.IndexByte(d.buf[d.scan:d.end], '\n'); i >= 0 {
			line = d.buf[d.start : d.scan+i]
			d.start = d.scan + i + 1
			d.scan = d.start
			return dropCR(line), true, nil
		}
		d.scan = d.end
		if d.rerr != nil {
			if d.start == d.end {
				if d.rerr == io.EOF {
					return nil, false, nil
				}
				return nil, false, d.rerr
			}
			line = d.buf[d.start:d.end]
			d.start = d.end
			return dropCR(line), true, nil
		}
		if d.end-d.start >= maxLine {
			return nil, false, errLineTooLong
		}
		if d.start > 0 {
			d.end = copy(d.buf, d.buf[d.start:d.end])
			d.scan -= d.start
			d.start = 0
		}
		if d.end == len(d.buf) {
			d.buf = slices.Grow(d.buf, max(len(d.buf), 4096))
			d.buf = d.buf[:cap(d.buf)]
		}
		n, err := r.Read(d.buf[d.end:min(len(d.buf), maxLine)])
		d.end += n
		switch {
		case err != nil:
			d.rerr = err
		case n > 0:
			d.empties = 0
		default:
			// bufio.Scanner's bound on reads that return nothing.
			if d.empties++; d.empties > 100 {
				d.rerr = io.ErrNoProgress
			}
		}
	}
}

func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// fail reports a line that is not JSON, or not a PushRecord, at the
// current byte.
func (d *pushDecoder) fail(msg string) error {
	if d.pos >= len(d.data) {
		msg = "unexpected end of JSON input"
	}
	return fmt.Errorf("%s (byte %d)", msg, d.pos)
}

// ws skips JSON whitespace and returns the next byte, 0 at the end
// (a NUL byte, which JSON never allows between tokens, reads the same).
func (d *pushDecoder) ws() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// record parses one push line.
func (d *pushDecoder) record(line []byte) (PushRecord, error) {
	d.data, d.pos = line, 0
	var rec PushRecord
	if d.ws() != '{' {
		return rec, d.fail("push record is not a JSON object")
	}
	d.pos++
	var seen uint8
	for n := 0; ; n++ {
		f, ok, err := d.member(n, recordFields, &seen, 1)
		if err != nil || !ok {
			if d.ws(); err == nil && d.pos < len(d.data) {
				err = d.fail("invalid character after push record")
			}
			return rec, err
		}
		switch f {
		case fieldSeq:
			rec.Seq, err = d.intN(64)
		case fieldFrame:
			var v int64
			v, err = d.intN(strconv.IntSize)
			rec.Frame = video.FrameIndex(v)
		case fieldDets:
			rec.Dets, err = d.detections()
		}
		if err != nil {
			return rec, err
		}
	}
}

// member reads the next member of an object whose '{' and n members
// are consumed. It returns the index of its key in names, with the
// value up next; unknown keys have their values skipped, and a null
// value leaves its field as it is. ok is false once the closing '}' is
// consumed. Keys match as encoding/json matches them: exactly, or else
// under its case folding. A key met twice is refused. depth is the
// object's nesting depth.
func (d *pushDecoder) member(n int, names []string, seen *uint8, depth int) (field int, ok bool, err error) {
	for ; ; n++ {
		c := d.ws()
		if n > 0 {
			if c == '}' {
				d.pos++
				return 0, false, nil
			}
			if c != ',' {
				return 0, false, d.fail("invalid character after object member")
			}
			d.pos++
			c = d.ws()
		} else if c == '}' {
			d.pos++
			return 0, false, nil
		}
		if c != '"' {
			return 0, false, d.fail("looking for an object key")
		}
		key, err := d.str()
		if err != nil {
			return 0, false, err
		}
		if d.ws() != ':' {
			return 0, false, d.fail("looking for ':' after object key")
		}
		d.pos++
		d.ws()
		field = matchKey(key, names)
		if field < 0 {
			if err := d.skip(depth); err != nil {
				return 0, false, err
			}
			continue
		}
		if *seen&(1<<field) != 0 {
			return 0, false, d.fail(fmt.Sprintf("duplicate key %q", names[field]))
		}
		*seen |= 1 << field
		if d.literal("null") {
			continue
		}
		return field, true, nil
	}
}

// matchKey returns key's index in names, or -1.
func matchKey(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key matches the ASCII name under
// encoding/json's key folding, which maps each rune r of both to
// ToUpper(ToLower(r)): "SEQ", "Seq" and "ſeq" (U+017F) all name seq.
func foldEqual(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i >= len(key) {
			return false
		}
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
		}
		if unicode.ToUpper(unicode.ToLower(r)) != unicode.ToUpper(rune(name[j])) {
			return false
		}
		i += n
	}
	return i == len(key)
}

// element advances to the next element of an array whose '[' and n
// elements are consumed: ok is false once the closing ']' is consumed.
func (d *pushDecoder) element(n int) (ok bool, err error) {
	c := d.ws()
	if n == 0 {
		if c == ']' {
			d.pos++
			return false, nil
		}
		return true, nil
	}
	switch c {
	case ']':
		d.pos++
		return false, nil
	case ',':
		d.pos++
		d.ws()
		return true, nil
	}
	return false, d.fail("invalid character after array element")
}

// literal consumes lit if it is up next.
func (d *pushDecoder) literal(lit string) bool {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// detections parses a non-null dets array.
func (d *pushDecoder) detections() ([]video.BBox, error) {
	if d.ws() != '[' {
		return nil, d.fail("dets is not an array")
	}
	d.pos++
	d.dets = d.dets[:0]
	for n := 0; ; n++ {
		ok, err := d.element(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		var b video.BBox
		if err := d.bbox(&b); err != nil {
			return nil, err
		}
		d.dets = append(d.dets, b)
	}
	out := make([]video.BBox, len(d.dets))
	copy(out, d.dets)
	clear(d.dets)
	return out, nil
}

// bbox parses one detection object.
func (d *pushDecoder) bbox(b *video.BBox) error {
	if d.ws() != '{' {
		return d.fail("detection is not a JSON object")
	}
	d.pos++
	var seen uint8
	for n := 0; ; n++ {
		f, ok, err := d.member(n, bboxFields, &seen, 3)
		if err != nil || !ok {
			return err
		}
		var v int64
		switch f {
		case fieldID:
			var u uint64
			u, err = d.uint64()
			b.ID = video.BBoxID(u)
		case fieldDetFrame:
			v, err = d.intN(strconv.IntSize)
			b.Frame = video.FrameIndex(v)
		case fieldRect:
			err = d.rect(b)
		case fieldObs:
			b.Obs, err = d.observation()
		case fieldClass:
			v, err = d.intN(strconv.IntSize)
			b.Class = video.ClassID(v)
		case fieldGTObject:
			v, err = d.intN(strconv.IntSize)
			b.GTObject = video.ObjectID(v)
		}
		if err != nil {
			return err
		}
	}
}

// rect parses a non-null Rect object.
func (d *pushDecoder) rect(b *video.BBox) error {
	if d.ws() != '{' {
		return d.fail("Rect is not a JSON object")
	}
	d.pos++
	dst := [...]*float64{&b.Rect.X, &b.Rect.Y, &b.Rect.W, &b.Rect.H}
	var seen uint8
	for n := 0; ; n++ {
		f, ok, err := d.member(n, rectFields, &seen, 4)
		if err != nil || !ok {
			return err
		}
		if *dst[f], err = d.float(); err != nil {
			return err
		}
	}
}

// observation parses a non-null Obs, an array or a base64 string: []
// and "" yield an empty, non-nil vector.
func (d *pushDecoder) observation() ([]float64, error) {
	switch d.ws() {
	case '"':
		return d.observationBits()
	case '[':
	default:
		return nil, d.fail("Obs is not an array or a base64 string")
	}
	d.pos++
	d.obs = d.obs[:0]
	for n := 0; ; n++ {
		ok, err := d.element(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		f, err := d.float()
		if err != nil {
			return nil, err
		}
		d.obs = append(d.obs, f)
	}
	out := make([]float64, len(d.obs))
	copy(out, d.obs)
	return out, nil
}

// observationBits parses an Obs string: standard padded base64 of the
// components' IEEE-754 bits, 8 bytes each, little-endian. It decodes as
// encoding/json decodes a []byte (so an escaped \r or \n in the text is
// skipped), and refuses a length that is not a multiple of 8 and a NaN
// or infinite component, as an array refuses 1e999.
func (d *pushDecoder) observationBits() ([]float64, error) {
	start := d.pos
	text, err := d.str()
	if err != nil {
		return nil, err
	}
	m := base64.StdEncoding.DecodedLen(len(text))
	d.bits = slices.Grow(d.bits[:0], m)[:m]
	n, err := base64.StdEncoding.Decode(d.bits, text)
	if err != nil {
		d.pos = start
		return nil, d.fail("Obs is not valid base64")
	}
	if n%8 != 0 {
		d.pos = start
		return nil, d.fail(fmt.Sprintf("Obs holds %d bytes, not whole float64s", n))
	}
	out := make([]float64, n/8)
	for i := range out {
		u := binary.LittleEndian.Uint64(d.bits[8*i:])
		if u&expMask == expMask {
			d.pos = start
			return nil, d.fail(fmt.Sprintf("Obs component %d is not finite", i))
		}
		out[i] = math.Float64frombits(u)
	}
	return out, nil
}

// expMask is a float64's exponent field, all ones for NaN and ±Inf.
const expMask = 0x7ff << 52

// number consumes a number matching JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (d *pushDecoder) number() ([]byte, error) {
	s, i := d.data, d.pos
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		i = digits(s, i)
	default:
		d.pos = i
		return nil, d.fail("looking for a number")
	}
	if i < len(s) && s[i] == '.' {
		if i++; i >= len(s) || s[i] < '0' || s[i] > '9' {
			d.pos = i
			return nil, d.fail("looking for a digit after the decimal point")
		}
		i = digits(s, i)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			d.pos = i
			return nil, d.fail("looking for a digit in the exponent")
		}
		i = digits(s, i)
	}
	num := s[d.pos:i]
	d.pos = i
	return num, nil
}

func digits(s []byte, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// float parses a number into a float64; one beyond float64's range is
// refused, as encoding/json refuses it.
func (d *pushDecoder) float() (float64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("number %s does not fit a float64", num))
	}
	return f, nil
}

// intN parses a number into a signed integer of the given bit size. As
// in encoding/json, only integer text is an integer: 1.0 and 1e2 are
// refused.
func (d *pushDecoder) intN(bits int) (int64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(num), 10, bits)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("number %s is not an int%d", num, bits))
	}
	return v, nil
}

func (d *pushDecoder) uint64() (uint64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("number %s is not a uint64", num))
	}
	return v, nil
}

// str consumes a string and returns its contents: a slice of the line
// when it holds no escape, else the unescaped text in d.key. Invalid
// UTF-8 passes through; encoding/json would replace it with U+FFFD,
// which no key or value here can tell apart.
func (d *pushDecoder) str() ([]byte, error) {
	s := d.data
	start := d.pos + 1
	i := start
	for i < len(s) && s[i] != '"' && s[i] != '\\' && s[i] >= 0x20 {
		i++
	}
	if i < len(s) && s[i] == '"' {
		d.pos = i + 1
		return s[start:i], nil
	}
	d.key = append(d.key[:0], s[start:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.key, nil
		case c < 0x20:
			d.pos = i
			return nil, d.fail("invalid control character in string")
		case c != '\\':
			d.key = append(d.key, c)
			i++
			continue
		}
		if i+1 >= len(s) {
			break
		}
		switch e := s[i+1]; e {
		case '"', '\\', '/':
			d.key = append(d.key, e)
		case 'b':
			d.key = append(d.key, '\b')
		case 'f':
			d.key = append(d.key, '\f')
		case 'n':
			d.key = append(d.key, '\n')
		case 'r':
			d.key = append(d.key, '\r')
		case 't':
			d.key = append(d.key, '\t')
		case 'u':
			r := hex4(s[i+2:])
			if r < 0 {
				d.pos = i
				return nil, d.fail("invalid \\u escape in string")
			}
			if utf16.IsSurrogate(r) {
				// A valid pair decodes to one rune; a lone half, as in
				// encoding/json, to U+FFFD.
				if i+12 <= len(s) && s[i+6] == '\\' && s[i+7] == 'u' {
					if dec := utf16.DecodeRune(r, hex4(s[i+8:])); dec != unicode.ReplacementChar {
						d.key = utf8.AppendRune(d.key, dec)
						i += 12
						continue
					}
				}
				r = unicode.ReplacementChar
			}
			d.key = utf8.AppendRune(d.key, r)
			i += 6
			continue
		default:
			d.pos = i
			return nil, d.fail("invalid escape in string")
		}
		i += 2
	}
	d.pos = len(s)
	return nil, d.fail("unterminated string")
}

// hex4 decodes four hex digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip consumes any JSON value, checking its syntax; depth is the
// nesting depth of the container holding it.
func (d *pushDecoder) skip(depth int) error {
	switch c := d.ws(); c {
	case '{', '[':
		if depth+1 > maxNestingDepth {
			return d.fail("exceeded max nesting depth")
		}
		d.pos++
		if c == '{' {
			// With no names, member skips every value and returns at '}'.
			var seen uint8
			_, _, err := d.member(0, nil, &seen, depth+1)
			return err
		}
		for n := 0; ; n++ {
			ok, err := d.element(n)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 't':
		if d.literal("true") {
			return nil
		}
	case 'f':
		if d.literal("false") {
			return nil
		}
	case 'n':
		if d.literal("null") {
			return nil
		}
	default:
		_, err := d.number()
		return err
	}
	return d.fail("invalid literal")
}

// appendPushRecord appends rec as one NDJSON line, byte for byte what
// json.Encoder writes for it. On a non-finite float it returns the
// error json.Encoder returns, and b may hold part of the record.
func appendPushRecord(b []byte, rec *PushRecord) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, rec.Seq, 10)
	b = append(b, `,"frame":`...)
	b = strconv.AppendInt(b, int64(rec.Frame), 10)
	if len(rec.Dets) > 0 {
		b = append(b, `,"dets":[`...)
		for i := range rec.Dets {
			det := &rec.Dets[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"ID":`...)
			b = strconv.AppendUint(b, uint64(det.ID), 10)
			b = append(b, `,"Frame":`...)
			b = strconv.AppendInt(b, int64(det.Frame), 10)
			for j, f := range [...]float64{det.Rect.X, det.Rect.Y, det.Rect.W, det.Rect.H} {
				if err := finite(f); err != nil {
					return b, err
				}
				b = canon.AppendFloat(append(b, rectKeys[j]...), f)
			}
			if det.Obs == nil {
				b = append(b, `},"Obs":null`...)
			} else {
				var err error
				if b, err = appendObservation(append(b, `},"Obs":"`...), det.Obs); err != nil {
					return b, err
				}
				b = append(b, '"')
			}
			b = append(b, `,"Class":`...)
			b = strconv.AppendInt(b, int64(det.Class), 10)
			b = append(b, `,"GTObject":`...)
			b = strconv.AppendInt(b, int64(det.GTObject), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), nil
}

var rectKeys = [...]string{`,"Rect":{"X":`, `,"Y":`, `,"W":`, `,"H":`}

// obsChunk is how many components appendObservation encodes at a time:
// 384 bytes, a multiple of 3, so each whole chunk encodes to base64
// without padding and the chunks concatenate into one text.
const obsChunk = 48

// appendObservation appends obs's base64 text, what json.Encoder writes
// for its bits as a []byte (see observationBits). A non-finite
// component fails as finite does.
func appendObservation(b []byte, obs []float64) ([]byte, error) {
	var chunk [8 * obsChunk]byte
	for len(obs) > 0 {
		n := min(len(obs), obsChunk)
		for i, f := range obs[:n] {
			if err := finite(f); err != nil {
				return b, err
			}
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(f))
		}
		b = base64.StdEncoding.AppendEncode(b, chunk[:8*n])
		obs = obs[n:]
	}
	return b, nil
}

// finite returns the error json.Encoder returns for a NaN or an
// infinity, which JSON cannot spell.
func finite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}
