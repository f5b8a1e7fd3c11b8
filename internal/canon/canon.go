// Package canon holds the project's one spelling rule for hand-coded
// JSON: the bytes encoding/json writes. Every durable format that skips
// encoding/json for speed — history segment lines, the checkpoint
// envelope's header, the push encoder, the durable mark read — writes
// and reads through it, so the rule is written once:
//
//   - fields in declaration order under their tag names, no whitespace;
//   - integers in their canonical spelling: an optional '-', no leading
//     zeros, no "-0";
//   - floats in encoding/json's shortest spelling (AppendFloat);
//   - an omitempty field left out when zero;
//   - strings here only where they need no escaping.
//
// AppendFloat writes that spelling; Reader parses exactly those bytes
// and refuses any other key order or spelling, whitespace, an escape,
// another spelling of a number, or an omitempty field written out
// empty. Each format's own tests hold encoding/json as the oracle.
package canon

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// AppendFloat appends f as encoding/json spells a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21,
// with a one-digit negative exponent not padded. f must be finite.
func AppendFloat(dst []byte, f float64) []byte {
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

// Reader parses canonical JSON bytes front to back. The first mismatch
// sticks: later reads return zero values, and Err names the byte offset
// and what was expected there.
type Reader struct {
	b    []byte
	size int
	err  error
	num  [32]byte // the canonical spelling of the float just read
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b, size: len(b)} }

func (r *Reader) fail(want string) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed at byte %d: want %s", r.size-len(r.b), want)
	}
	r.b = nil
}

// Err returns the first mismatch, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes not yet read (nil after a mismatch). They
// alias the input.
func (r *Reader) Rest() []byte { return r.b }

// Lit consumes s, which must come next.
func (r *Reader) Lit(s string) {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		r.fail(strconv.Quote(s))
		return
	}
	r.b = r.b[len(s):]
}

// Opt consumes s if it comes next, and reports whether it did.
func (r *Reader) Opt(s string) bool {
	if len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// End checks that the input is used up, and returns Err.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("the end of the input")
	}
	return r.err
}

// Int reads an integer in its canonical spelling: an optional '-', no
// leading zeros, no "-0", within int64.
func (r *Reader) Int() int {
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

// Nonzero reads an integer that an omitempty field only writes when it
// is not zero.
func (r *Reader) Nonzero() int {
	v := r.Int()
	if v == 0 && r.err == nil {
		r.fail("a nonzero integer (a zero omitempty field is left out)")
	}
	return v
}

// Float reads a float in encoding/json's spelling (see AppendFloat).
func (r *Reader) Float() float64 {
	i := 0
	for ; i < len(r.b); i++ {
		if c := r.b[i]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	tok := r.b[:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || !bytes.Equal(AppendFloat(r.num[:0], f), tok) {
		r.fail("a canonical float")
		return 0
	}
	r.b = r.b[i:]
	return f
}

// Str reads a string that needs no escaping in JSON: printable ASCII
// other than '"', '\\', '<', '>' and '&' (which json.Marshal escapes).
func (r *Reader) Str() string {
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
