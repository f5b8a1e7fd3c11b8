package histlog

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSegment hammers the segment decoder with arbitrary bytes: it must
// never panic, and anything it accepts must be canonical — every line
// decodes to the same values under the strict encoding/json oracle, and
// re-encoding the segment writes the input back byte for byte — and
// re-decode to the same segment.
func FuzzSegment(f *testing.F) {
	raw, _, err := EncodeSegment(SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindRaw}, genEntries(3), nil, SegmentFooter{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	st := buildView(genEntries(3), 3).State()
	base, _, err := EncodeSegment(SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 1, Kind: KindBase}, nil, st.Tracks, SegmentFooter{EndWindow: 3, EndSeq: st.Seq, EndFrame: 14})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	odd, _, err := EncodeSegment(SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindRaw}, oddEntries(), nil, SegmentFooter{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(odd)
	oddBase, _, err := EncodeSegment(SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindBase}, nil, oddTracks(), SegmentFooter{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oddBase)
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(""))
	f.Add(raw[:len(raw)/2])
	f.Add(append(append([]byte(nil), raw...), base...))
	// Lines encoding/json reads but EncodeSegment never writes.
	hdrEnd := bytes.IndexByte(raw, '\n')
	f.Add(append(append(append([]byte(nil), raw[:hdrEnd]...), ']'), raw[hdrEnd:]...))
	f.Add(append(append([]byte(nil), raw[:len(raw)-1]...), "]]]\n"...))
	f.Add(bytes.Replace(raw, []byte(`"cx":3`), []byte(`"cx":3.0`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		checkAgainstOracle(t, data, seg)
		re, ft, err := EncodeSegment(seg.Header, seg.Entries, seg.Tracks, seg.Footer)
		if err != nil {
			t.Fatalf("accepted segment does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted segment is not canonical:\n%s\nre-encodes as\n%s", data, re)
		}
		seg2, err := DecodeSegment(re)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !reflect.DeepEqual(seg2.Header, seg.Header) || !reflect.DeepEqual(seg2.Entries, seg.Entries) ||
			!reflect.DeepEqual(seg2.Tracks, seg.Tracks) || seg2.Footer != ft {
			t.Fatal("segment round trip diverged")
		}
	})
}
