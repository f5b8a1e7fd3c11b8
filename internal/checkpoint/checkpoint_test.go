package checkpoint

import (
	"bytes"
	"testing"
)

type testPayload struct {
	Name  string    `json:"name"`
	Vals  []float64 `json:"vals"`
	Count int       `json:"count"`
}

func TestSealOpenRoundTrip(t *testing.T) {
	in := testPayload{Name: "session", Vals: []float64{1.5, -2.25, 0.1}, Count: 42}
	data, err := Seal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out testPayload
	if err := Open(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || len(out.Vals) != len(in.Vals) {
		t.Fatalf("round trip mangled payload: %+v vs %+v", out, in)
	}
	for i := range in.Vals {
		if out.Vals[i] != in.Vals[i] {
			t.Fatalf("float %d not bit-identical: %v vs %v", i, out.Vals[i], in.Vals[i])
		}
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	data, err := Seal(testPayload{Name: "x", Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(data) / 4, len(data) / 2, len(data) - 1} {
		var out testPayload
		if err := Open(data[:cut], &out); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	var out testPayload
	if err := Open(nil, &out); err == nil {
		t.Error("empty input accepted")
	}
}

func TestOpenRejectsBitFlips(t *testing.T) {
	orig := testPayload{Name: "abcdef", Vals: []float64{3.25}, Count: 7}
	data, err := Seal(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-bit flip must be rejected: the header is parsed
	// strictly, so a flip there breaks the layout or changes the format,
	// version or recorded checksum, and a flip in the payload fails the
	// checksum. What may never happen is a flip that silently yields
	// different state.
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			var out testPayload
			if err := Open(mut, &out); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted: %+v", i, bit, out)
			}
		}
	}
}

func TestSealIsDeterministic(t *testing.T) {
	p := testPayload{Name: "det", Vals: []float64{0.5, 0.25}, Count: 3}
	a, err := Seal(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Seal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two seals of the same payload differ")
	}
}

func TestOpenRejectsNaNPayloadAtSeal(t *testing.T) {
	// JSON cannot carry NaN: sealing a payload containing one must fail
	// rather than write an unreadable checkpoint.
	type bad struct {
		V float64 `json:"v"`
	}
	nan := 0.0
	nan = nan / nan
	if _, err := Seal(bad{V: nan}); err == nil {
		t.Error("NaN payload sealed")
	}
}
