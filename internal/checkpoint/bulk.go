package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Bulk is implemented by payloads too large to spend JSON on: their
// numeric arrays travel in the envelope's binary bulk section, which the
// payload writes and reads itself, and the JSON part carries only the
// structure around them. The section's encoding is the payload's; the
// helpers below give it little-endian IEEE-754 floats (bit-exact, NaN
// payloads included) and LEB128 varints.
type Bulk interface {
	// AppendBulk appends the payload's bulk section to dst.
	AppendBulk(dst []byte) []byte
	// ReadBulk reads the bulk section back into a payload whose JSON
	// part has already been decoded. Open requires the section to be
	// read to its end.
	ReadBulk(r *Reader) error
}

// AppendFloat64 appends v's eight little-endian IEEE-754 bytes.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendFloat64s appends a length-prefixed float slice: a uvarint of
// len(v)+1 (0 for a nil slice, so nil and empty stay distinct), then the
// elements.
func AppendFloat64s(dst []byte, v []float64) []byte {
	if v == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(v))+1)
	for _, x := range v {
		dst = AppendFloat64(dst, x)
	}
	return dst
}

// Reader reads a bulk section. Every read that declares a length checks
// it against the bytes left before it allocates, so a section cannot
// make its reader allocate more than its own size. The first failure
// sticks: later reads return zero values, and Err (which Open also
// checks) reports it.
type Reader struct {
	buf []byte
	err error
}

// Err returns the first read failure, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Uvarint reads an unsigned LEB128 varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag LEB128 varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Float64 reads what AppendFloat64 wrote.
func (r *Reader) Float64() float64 {
	if len(r.buf) < 8 {
		r.fail(errors.New("truncated float"))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// Len reads a uvarint count of items that each take at least minSize
// (≥ 1) bytes, refusing a count the bytes left cannot hold.
func (r *Reader) Len(minSize int) int {
	v := r.Uvarint()
	if left := uint64(len(r.buf) / minSize); v > left {
		r.fail(fmt.Errorf("count %d exceeds the %d items of %d bytes left", v, left, minSize))
		return 0
	}
	return int(v)
}

// Float64s reads what AppendFloat64s wrote.
func (r *Reader) Float64s() []float64 {
	v := r.Uvarint()
	if v == 0 {
		return nil
	}
	if left := uint64(len(r.buf) / 8); v-1 > left {
		r.fail(fmt.Errorf("float count %d exceeds the %d floats left", v-1, left))
		return nil
	}
	out := make([]float64, v-1)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[8*i:]))
	}
	r.buf = r.buf[8*len(out):]
	return out
}
