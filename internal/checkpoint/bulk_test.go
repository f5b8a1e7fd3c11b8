package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/checkpoint"
)

// bulkPayload is a payload with a bulk section: a list of float vectors
// next to its JSON name.
type bulkPayload struct {
	Name string      `json:"name"`
	Vecs [][]float64 `json:"-"`
}

func (p *bulkPayload) AppendBulk(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.Vecs)))
	for _, v := range p.Vecs {
		dst = checkpoint.AppendFloat64s(dst, v)
	}
	return dst
}

func (p *bulkPayload) ReadBulk(r *checkpoint.Reader) error {
	p.Vecs = make([][]float64, r.Len(1))
	for i := range p.Vecs {
		p.Vecs[i] = r.Float64s()
	}
	return nil
}

// rawBulk seals the given JSON payload and bulk bytes as they are, so a
// test can put any bulk section under a valid checksum.
type rawBulk struct {
	json, bulk []byte
}

func (p rawBulk) MarshalJSON() ([]byte, error)          { return p.json, nil }
func (p rawBulk) AppendBulk(dst []byte) []byte          { return append(dst, p.bulk...) }
func (p rawBulk) ReadBulk(r *checkpoint.Reader) error   { return nil }
func sealRaw(t testing.TB, payload, bulk []byte) []byte { return mustSeal(t, rawBulk{payload, bulk}) }

func mustSeal(t testing.TB, p any) []byte {
	t.Helper()
	data, err := checkpoint.Seal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameBulk reports whether two payloads hold the same vectors, floats
// compared bit for bit and nil apart from empty.
func sameBulk(a, b *bulkPayload) bool {
	if a.Name != b.Name || len(a.Vecs) != len(b.Vecs) {
		return false
	}
	for i := range a.Vecs {
		if (a.Vecs[i] == nil) != (b.Vecs[i] == nil) || len(a.Vecs[i]) != len(b.Vecs[i]) {
			return false
		}
		for j := range a.Vecs[i] {
			if math.Float64bits(a.Vecs[i][j]) != math.Float64bits(b.Vecs[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestSealOpenBulkRoundTrip(t *testing.T) {
	in := &bulkPayload{Name: "bulk", Vecs: [][]float64{
		{1.5, -2.25, 0.1},
		nil,
		{},
		{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000abc), math.SmallestNonzeroFloat64},
	}}
	data := mustSeal(t, in)
	if !bytes.Contains(data, []byte(`","bulk":`)) || !bytes.Contains(data, []byte(`,"payload":{"name":"bulk"}}`)) {
		t.Fatalf("bulk envelope header: %.120q", data)
	}
	var out bulkPayload
	if err := checkpoint.Open(data, &out); err != nil {
		t.Fatal(err)
	}
	if !sameBulk(in, &out) {
		t.Fatalf("round trip changed the payload: %v vs %v", out, in)
	}
	// A reader without a bulk section reads the JSON part of a verified
	// envelope.
	var name struct {
		Name string `json:"name"`
	}
	if err := checkpoint.Open(data, &name); err != nil || name.Name != "bulk" {
		t.Fatalf("JSON-only read of a bulk envelope: %q, %v", name.Name, err)
	}
	// An empty bulk section is still declared.
	empty := mustSeal(t, &bulkPayload{Name: "e"})
	if !bytes.Contains(empty, []byte(`","bulk":1,"payload":`)) {
		t.Fatalf("bulk envelope with no vectors: %q", empty)
	}
	if err := checkpoint.Open(empty, &out); err != nil || len(out.Vecs) != 0 {
		t.Fatalf("empty bulk: %v, %v", out.Vecs, err)
	}
}

// TestOpenRefusesBadBulk: a bulk section that does not decode, or that a
// bulk payload does not read to its end, is refused even under a valid
// checksum, as is a bulk payload opened from an envelope without one and
// a declared length the envelope cannot hold. The huge counts would
// crash the test if the reader allocated before checking them against
// the bytes left.
func TestOpenRefusesBadBulk(t *testing.T) {
	good := (&bulkPayload{Vecs: [][]float64{{1, 2}, {3}}}).AppendBulk(nil)
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for name, bulk := range map[string][]byte{
		"empty":              {},
		"truncated count":    {0x80},
		"truncated vector":   good[:len(good)-1],
		"truncated float":    good[:len(good)-3],
		"trailing bytes":     append(append([]byte(nil), good...), 0),
		"count past the end": append([]byte{3}, good[1:]...),
		"huge count":         append(huge, good[1:]...),
		"huge vector":        append([]byte{1}, huge...),
		"2^40 floats":        append([]byte{1}, binary.AppendUvarint(nil, 1<<40)...),
		"overlong varint":    bytes.Repeat([]byte{0xff}, 11),
	} {
		var out bulkPayload
		if err := checkpoint.Open(sealRaw(t, []byte(`{"name":"x"}`), bulk), &out); err == nil || !strings.Contains(err.Error(), "bulk") {
			t.Errorf("%s: err = %v, want a bulk section error", name, err)
		}
	}
	var out bulkPayload
	if err := checkpoint.Open(mustSeal(t, map[string]string{"name": "x"}), &out); err == nil || !strings.Contains(err.Error(), "no bulk section") {
		t.Errorf("bulk payload from a JSON-only envelope: err = %v", err)
	}
	data := sealRaw(t, []byte(`{"name":"x"}`), good)
	n := strconv.Itoa(len(good))
	for name, mut := range map[string][]byte{
		"length past the start": bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":9999`), 1),
		"length 0n":             bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":0`+n), 1),
		"length -n":             bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":-`+n), 1),
		"length huge":           bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":9223372036854775807`), 1),
		"length overflow":       bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":99999999999999999999`), 1),
		"length one short":      bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":`+strconv.Itoa(len(good)-1)), 1),
		"length one long":       bytes.Replace(data, []byte(`"bulk":`+n), []byte(`"bulk":`+strconv.Itoa(len(good)+1)), 1),
	} {
		if err := checkpoint.Open(mut, &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOpenRejectsBulkBitFlips: every single-bit flip of a bulk envelope,
// declared length included, is refused.
func TestOpenRejectsBulkBitFlips(t *testing.T) {
	data := mustSeal(t, &bulkPayload{Name: "flip", Vecs: [][]float64{{0.5}, {}, {1, 2}}})
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			var out bulkPayload
			if err := checkpoint.Open(mut, &out); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted: %+v", i, bit, out)
			}
		}
	}
}

// TestOpenBulkLengthShiftsFail: a declared length that moves the split
// by a run of '}' bytes keeps the checksum valid; the payload then ends
// unbalanced or with a trailing brace, and does not decode.
func TestOpenBulkLengthShiftsFail(t *testing.T) {
	payload := []byte(`{"name":{"x":{}}}`)
	bulk := append([]byte("}}"), (&bulkPayload{}).AppendBulk(nil)...)
	data := sealRaw(t, payload, bulk)
	n := len(bulk)
	for _, m := range []int{n - 2, n - 1, n + 1, n + 2, n + 3} {
		mut := bytes.Replace(data, []byte(`"bulk":`+strconv.Itoa(n)), []byte(`"bulk":`+strconv.Itoa(m)), 1)
		var out json.RawMessage
		if err := checkpoint.Open(mut, &out); err == nil {
			t.Errorf("declared length %d (sealed %d) accepted", m, n)
		}
	}
}
