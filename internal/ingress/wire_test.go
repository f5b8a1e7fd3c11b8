package ingress

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/video"
)

func validRecord(seq int64, frame video.FrameIndex) PushRecord {
	return PushRecord{
		Seq:   seq,
		Frame: frame,
		Dets: []video.BBox{{
			ID: video.BBoxID(seq), Frame: frame,
			Rect: geom.Rect{X: 1, Y: 2, W: 3, H: 4},
			Obs:  []float64{0.5, -0.25},
		}},
	}
}

func TestPushBatchRoundTrip(t *testing.T) {
	in := []PushRecord{validRecord(0, 0), validRecord(1, 1), {Seq: 5, Frame: 9}}
	var buf bytes.Buffer
	if err := EncodePushBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodePushBatch(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Seq != in[i].Seq || out[i].Frame != in[i].Frame || len(out[i].Dets) != len(in[i].Dets) {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestDecodePushBatchRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"not json", "{nope\n", "line 1"},
		{"negative seq", `{"seq":-1,"frame":0}` + "\n", "negative seq"},
		{"seq regression", `{"seq":2,"frame":0}` + "\n" + `{"seq":1,"frame":1}` + "\n", "not increasing"},
		{"seq duplicate", `{"seq":2,"frame":0}` + "\n" + `{"seq":2,"frame":1}` + "\n", "not increasing"},
		{"frame regression", `{"seq":0,"frame":5}` + "\n" + `{"seq":1,"frame":4}` + "\n", "not increasing"},
		{"frame negative", `{"seq":0,"frame":-3}` + "\n", "outside"},
		{"frame too large", `{"seq":0,"frame":1099511627777}` + "\n", "outside"},
		{"non-finite geometry", `{"seq":0,"frame":0,"dets":[{"ID":1,"Frame":0,"Rect":{"X":1e999,"Y":0,"W":1,"H":1}}]}` + "\n", ""},
		{"non-positive size", `{"seq":0,"frame":0,"dets":[{"ID":1,"Frame":0,"Rect":{"X":0,"Y":0,"W":0,"H":1}}]}` + "\n", "non-positive size"},
		{"det frame mismatch", `{"seq":0,"frame":3,"dets":[{"ID":1,"Frame":4,"Rect":{"X":0,"Y":0,"W":1,"H":1}}]}` + "\n", "does not match"},
		{"non-finite obs", `{"seq":0,"frame":0,"dets":[{"ID":1,"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":[1e999]}]}` + "\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodePushBatch(strings.NewReader(tc.body), 0)
			if err == nil {
				t.Fatalf("decode accepted %q", tc.body)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestDecodePushBatchOversizedLine(t *testing.T) {
	long := `{"seq":0,"frame":0,"pad":"` + strings.Repeat("x", 4096) + `"}` + "\n"
	_, err := DecodePushBatch(strings.NewReader(long), 256)
	if err == nil || !strings.Contains(err.Error(), "exceeds 256 bytes") {
		t.Fatalf("oversized line: got %v", err)
	}
}

func TestDecodePushBatchSkipsBlankLines(t *testing.T) {
	body := "\n  \n" + `{"seq":0,"frame":0}` + "\n\n" + `{"seq":1,"frame":1}` + "\n \n"
	recs, err := DecodePushBatch(strings.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
}

// wireRecord mirrors PushRecord for the encoding/json oracle, with the
// detections' Obs of type O: []byte to encode, so that json.Encoder
// spells it as base64 of the components' bits, and obsUnion to decode.
type wireRecord[O any] struct {
	Seq   int64            `json:"seq"`
	Frame video.FrameIndex `json:"frame"`
	Dets  []wireBBox[O]    `json:"dets,omitempty"`
}

// wireBBox mirrors video.BBox field for field.
type wireBBox[O any] struct {
	ID       video.BBoxID
	Frame    video.FrameIndex
	Rect     geom.Rect
	Obs      O
	Class    video.ClassID
	GTObject video.ObjectID
}

// obsBits is obs's components as IEEE-754 bits, 8 little-endian bytes
// each; nil stays nil.
func obsBits(obs []float64) []byte {
	if obs == nil {
		return nil
	}
	b := make([]byte, 0, 8*len(obs))
	for _, f := range obs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// obsUnion decodes Obs in either spelling with encoding/json: an array
// as a []float64, a string as a []byte reinterpreted by obsBits'
// inverse.
type obsUnion []float64

func (o *obsUnion) UnmarshalJSON(data []byte) error {
	if data[0] != '"' {
		return json.Unmarshal(data, (*[]float64)(o))
	}
	var b []byte
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	if len(b)%8 != 0 {
		return fmt.Errorf("Obs holds %d bytes", len(b))
	}
	*o = make(obsUnion, 0, len(b)/8)
	for ; len(b) > 0; b = b[8:] {
		*o = append(*o, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return nil
}

// oracleDecodePushBatch is DecodePushBatch written on encoding/json: the
// differential tests' reference for which lines are push records and
// what they decode to.
func oracleDecodePushBatch(r io.Reader, maxLine int) ([]PushRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	var (
		out      []PushRecord
		line     int
		prevSeq  int64 = -1
		havePrev bool
		prevFr   video.FrameIndex
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var w wireRecord[obsUnion]
		if err := json.Unmarshal(raw, &w); err != nil {
			return out, fmt.Errorf("line %d: %w", line, err)
		}
		rec := PushRecord{Seq: w.Seq, Frame: w.Frame}
		if w.Dets != nil {
			rec.Dets = make([]video.BBox, len(w.Dets))
			for i, d := range w.Dets {
				rec.Dets[i] = video.BBox{ID: d.ID, Frame: d.Frame, Rect: d.Rect, Obs: []float64(d.Obs), Class: d.Class, GTObject: d.GTObject}
			}
		}
		if rec.Seq < 0 || rec.Seq <= prevSeq || rec.Frame < 0 || rec.Frame > video.MaxFrameIndex ||
			(havePrev && rec.Frame <= prevFr) {
			return out, fmt.Errorf("line %d: seq or frame out of order", line)
		}
		for i, d := range rec.Dets {
			if err := d.Validate(); err != nil || d.Frame != rec.Frame {
				return out, fmt.Errorf("line %d det %d: invalid", line, i)
			}
		}
		prevSeq, prevFr, havePrev = rec.Seq, rec.Frame, true
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("line %d: %w", line+1, err)
	}
	return out, nil
}

// oracleEncodePushBatch is EncodePushBatch written on encoding/json: a
// record json.Marshal refuses as a PushRecord (a non-finite float) is
// refused with its error, and any other is written as json.Encoder
// writes its mirror with Obs as bits.
func oracleEncodePushBatch(w io.Writer, recs []PushRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		rec := &recs[i]
		if _, err := json.Marshal(rec); err != nil {
			return fmt.Errorf("ingress: encode push record %d: %w", i, err)
		}
		m := wireRecord[[]byte]{Seq: rec.Seq, Frame: rec.Frame}
		for _, d := range rec.Dets {
			m.Dets = append(m.Dets, wireBBox[[]byte]{ID: d.ID, Frame: d.Frame, Rect: d.Rect, Obs: obsBits(d.Obs), Class: d.Class, GTObject: d.GTObject})
		}
		if err := enc.Encode(&m); err != nil {
			return fmt.Errorf("ingress: encode push record %d: %w", i, err)
		}
	}
	return nil
}

// sameRecords reports whether a and b are equal with every float
// compared bitwise (so -0 differs from 0) and nil slices told apart
// from empty ones.
func sameRecords(a, b []PushRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Frame != b[i].Frame ||
			(a[i].Dets == nil) != (b[i].Dets == nil) || len(a[i].Dets) != len(b[i].Dets) {
			return false
		}
		for j := range a[i].Dets {
			x, y := a[i].Dets[j], b[i].Dets[j]
			if x.ID != y.ID || x.Frame != y.Frame || x.Class != y.Class || x.GTObject != y.GTObject ||
				!sameFloats([]float64{x.Rect.X, x.Rect.Y, x.Rect.W, x.Rect.H}, []float64{y.Rect.X, y.Rect.Y, y.Rect.W, y.Rect.H}) ||
				(x.Obs == nil) != (y.Obs == nil) || !sameFloats(x.Obs, y.Obs) {
				return false
			}
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle is the differential property: every record the
// decoder returns, with or without an error, the oracle returns too, at
// the same position and bitwise equal; and a body the decoder accepts,
// the oracle accepts.
func checkAgainstOracle(t *testing.T, data []byte, maxLine int) {
	t.Helper()
	recs, err := DecodePushBatch(bytes.NewReader(data), maxLine)
	want, werr := oracleDecodePushBatch(bytes.NewReader(data), maxLine)
	if len(recs) > len(want) || !sameRecords(recs, want[:len(recs)]) {
		t.Fatalf("decoded %d records that the oracle does not (oracle: %d, %v)\nbody %q", len(recs), len(want), werr, data)
	}
	if err == nil && werr != nil {
		t.Fatalf("decoder accepted a body the oracle refuses (%v)\nbody %q", werr, data)
	}
}

// pushFuzzSeeds are bodies the decoder and the oracle must agree on:
// each lexical corner of the grammar once.
var pushFuzzSeeds = []string{
	`{"seq":0,"frame":0}`,
	"{\"seq\":0,\"frame\":0}\r\n{\"seq\":1,\"frame\":1}",
	` { "frame" : 7 , "seq" : 3 } `,
	"\t{\"seq\":0,\t\"frame\":0}\t",
	`{"seq":0,"frame":0,"dets":[]}`,
	`{"seq":0,"frame":0,"dets":null}`,
	`{"seq":null,"frame":null,"dets":null}`,
	`{"seq":0,"frame":2,"dets":[{"ID":1,"Frame":2,"Rect":{"X":-0,"Y":1e-7,"W":1E+2,"H":0.5},"Obs":[],"Class":1,"GTObject":-1}]}`,
	`{"seq":0,"frame":2,"dets":[{"ID":1,"Frame":2,"Rect":{"X":1,"Y":1,"W":1,"H":1},"Obs":null,"Class":null}]}`,
	`{"seq":0,"frame":2,"dets":[{"Rect":{"H":1,"W":1},"Frame":2,"Obs":[-0.0,1.5e300,4.9e-324,123456789012345678901234567890]}]}`,
	`{"SEQ":4,"Frame":1,"DETS":[{"id":2,"frame":1,"rect":{"x":0,"y":0,"w":1,"h":1},"obs":[1],"gtobject":3}]}`,
	`{"ſeq":4,"frame":1,"dets":[{"ID":2,"Frame":1,"Rect":{"X":0,"Y":0,"W":1,"H":1},"GTObject":3}]}`,
	`{"seq":4,"frame":1,"ſeq2":0}`,
	`{"seq":0,"frame":0,"pad":{"a":[1,{"b":null}],"c":"x\"\\\/\b\f\n\r\té😀\ud800"},"t":true,"f":false}`,
	`{"seq":0,"frame":0,"k":"` + "\xff\xfe" + `"}`,
	`{"seq":-0,"frame":-0}`,
	`{"seq":9223372036854775807,"frame":1099511627776}`,
	`{"seq":9223372036854775808,"frame":0}`,
	`{"seq":1.0,"frame":0}`,
	`{"seq":1e2,"frame":0}`,
	`{"seq":"1","frame":0}`,
	`{"seq":0,"frame":0,"dets":[{"ID":-0,"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1}}]}`,
	`{"seq":0,"frame":0,"dets":[{"ID":1,"Frame":0,"Rect":{"X":1e400,"Y":0,"W":1,"H":1}}]}`,
	`{"seq":0,"frame":0,"dets":{}}`,
	`{"seq":0,"frame":0,"dets":[null]}`,
	`{"seq":0,"frame":0,"dets":[{"Rect":[]}]}`,
	`{"seq":0,"frame":0,}`,
	`{"seq":0,"frame":0}{}`,
	`{"seq":0,"frame":0} x`,
	`{"seq":+1,"frame":0}`,
	`{"seq":0,"frame":0,"x":.5}`,
	`{"seq":0,"frame":0,"x":01}`,
	`{"seq":0,"frame":0,"x":NaN}`,
	`{"seq":0,"frame":0,"x":Inf}`,
	`{"seq":0,"frame":0,"x":0x1p3}`,
	`{"seq":0,"frame":0,"x":1_0}`,
	`{"seq":0,"frame":0,"x":1.}`,
	`{"seq":0,"frame":0,"x":1e}`,
	`{"seq":0,"frame":0,"x":"\u12"}`,
	`{"seq":0,"frame":0,"x":"` + "\x01" + `"}`,
	`{"seq":0,"frame":0,"x":[1,]}`,
	`{"seq":0,"frame":0,"x":tru}`,
	`{"seq":0,"frame":0,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"seq":0,"frame":0,"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	// Obs as base64 float64 bits: empty, 1 and -0.25, escaped
	// ("\u002b" is '+', "\/" is '/', "\u003d" is '='), \r and \n inside
	// the text (skipped), lengths that are not whole float64s, an
	// unpadded text, letters outside the standard alphabet, and the bit
	// patterns of +Inf, -Inf and NaN.
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":""}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA8D8AAAAAAADQvw=="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"\u002b\/\/\/\/\/\/\/778\u003d"}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAA\nAAAA\r\n8D8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAA"}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA8D8AAA=="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA8D8"}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"_______-7z8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA8D8=AAAAAAAA8D8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA 8D8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA8H8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA8P8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":"AAAAAAAA+H8="}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":1}]}`,
	`{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"obs":"AAAAAAAA8D8=","OBS":[1]}]}`,
	`[]`,
	`"seq"`,
	"{\"seq\":0,\"frame\":0}\n\v\n{\"seq\":1,\"frame\":1}\n{\"seq\":0",
}

// FuzzDecodePushBatch is the hardened-decoder harness and the
// differential test against encoding/json: arbitrary bytes must never
// panic the decoder, anything it accepts must satisfy the protocol
// invariants the server relies on (monotone seq and frame, frame range,
// valid finite detections), and every record it yields the oracle
// yields identically.
func FuzzDecodePushBatch(f *testing.F) {
	var seedBuf bytes.Buffer
	_ = EncodePushBatch(&seedBuf, []PushRecord{validRecord(0, 0), validRecord(1, 1)})
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"seq":0,"frame":0}` + "\n"))
	f.Add([]byte(`{"seq":-9,"frame":-9}`))
	f.Add([]byte(`{"seq":1,"frame":2,"dets":[{"Rect":{"W":1e999}}]}`))
	f.Add([]byte("\x00\xff{"))
	f.Add([]byte(strings.Repeat(`{"seq":0,"frame":0}`+"\n", 50)))
	for _, s := range pushFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data, 1<<14)
		recs, err := DecodePushBatch(bytes.NewReader(data), 1<<14)
		if err != nil {
			return
		}
		var prevSeq int64 = -1
		prevFrame := video.FrameIndex(-1)
		for i, r := range recs {
			if r.Seq <= prevSeq {
				t.Fatalf("record %d: seq %d <= previous %d", i, r.Seq, prevSeq)
			}
			if r.Frame < 0 || r.Frame > video.MaxFrameIndex {
				t.Fatalf("record %d: frame %d out of range", i, r.Frame)
			}
			if prevFrame >= 0 && r.Frame <= prevFrame {
				t.Fatalf("record %d: frame %d <= previous %d", i, r.Frame, prevFrame)
			}
			for j, d := range r.Dets {
				if err := d.Validate(); err != nil {
					t.Fatalf("record %d det %d invalid: %v", i, j, err)
				}
				if d.Frame != r.Frame {
					t.Fatalf("record %d det %d frame mismatch", i, j)
				}
			}
			prevSeq, prevFrame = r.Seq, r.Frame
		}
	})
}

func TestDecodePushBatchAgreesWithOracle(t *testing.T) {
	for _, s := range pushFuzzSeeds {
		checkAgainstOracle(t, []byte(s), 1<<16)
	}
	// Bodies at and around the line bound, with and without a final
	// newline.
	line := `{"seq":0,"frame":0,"pad":"` + strings.Repeat("x", 200) + `"}`
	for _, maxLine := range []int{len(line) - 1, len(line), len(line) + 1, len(line) + 2} {
		checkAgainstOracle(t, []byte(line), maxLine)
		checkAgainstOracle(t, []byte(line+"\n"), maxLine)
		checkAgainstOracle(t, []byte(line+"\r\n"), maxLine)
	}
}

// TestDecodePushBatchOracleOnlyLines lists every kind of line
// encoding/json accepts into a PushRecord that the push codec refuses.
// None is something a client writes: EncodePushBatch never emits one.
func TestDecodePushBatchOracleOnlyLines(t *testing.T) {
	cases := []struct{ name, line, why string }{
		{"duplicate key", `{"seq":0,"seq":1,"frame":0}`,
			"encoding/json keeps the last value (and merges duplicated objects and arrays into earlier ones); the codec refuses rather than pick"},
		{"duplicate key under folding", `{"seq":0,"SEQ":1,"frame":0}`,
			"SEQ names seq under encoding/json's case folding, so this is a duplicate too"},
		{"duplicate detection key", `{"seq":0,"frame":0,"dets":[{"W":1,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Rect":{"W":2}}]}`,
			"the same rule inside a detection"},
		{"null record", `null`,
			"encoding/json decodes a null line to the zero record; a push line must be an object"},
		{"null in Obs", `{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":[1,null]}]}`,
			"encoding/json leaves a null element at 0; an observation component must be a number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := oracleDecodePushBatch(strings.NewReader(tc.line), 0); err != nil {
				t.Fatalf("the oracle refuses %q (%v): not an oracle-only line", tc.line, err)
			}
			if _, err := DecodePushBatch(strings.NewReader(tc.line), 0); err == nil {
				t.Fatalf("decoder accepted %q; listed as refused because %s", tc.line, tc.why)
			}
		})
	}
}

// TestDecodePushBatchReadmeBody decodes the push body of README's curl
// example, which a hand-written client sends as is.
func TestDecodePushBatchReadmeBody(t *testing.T) {
	body := `
{"seq":0,"frame":0,"dets":[]}
{"seq":1,"frame":1,"dets":[]}`
	recs, err := DecodePushBatch(strings.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []PushRecord{{Seq: 0, Frame: 0, Dets: []video.BBox{}}, {Seq: 1, Frame: 1, Dets: []video.BBox{}}}
	if !sameRecords(recs, want) {
		t.Fatalf("decoded %+v, want %+v", recs, want)
	}
	checkAgainstOracle(t, []byte(body), 0)
}

// TestDecodePushBatchMixedObsSpellings decodes one body holding both
// spellings of the same observations, and of an empty one, into
// bitwise-equal records.
func TestDecodePushBatchMixedObsSpellings(t *testing.T) {
	det := func(frame int, obs string) string {
		return fmt.Sprintf(`{"ID":7,"Frame":%d,"Rect":{"X":1,"Y":2,"W":3,"H":4},"Obs":%s,"Class":1,"GTObject":2}`, frame, obs)
	}
	body := `{"seq":0,"frame":0,"dets":[` + det(0, `[1,-0.25,-0,0.9999999999999999]`) + `,` + det(0, `[]`) + "]}\n" +
		`{"seq":1,"frame":1,"dets":[` + det(1, `"AAAAAAAA8D8AAAAAAADQvwAAAAAAAACA////////7z8="`) + `,` + det(1, `""`) + "]}\n" +
		`{"seq":2,"frame":2,"dets":[` + det(2, `[1,-0.25,-0,0.9999999999999999]`) + `,` + det(2, `""`) + "]}\n"
	recs, err := DecodePushBatch(strings.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, []byte(body), 0)
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	for i := 1; i < 3; i++ {
		a, b := recs[0], recs[i]
		a.Seq, a.Frame = b.Seq, b.Frame
		a.Dets = append([]video.BBox(nil), a.Dets...)
		for j := range a.Dets {
			a.Dets[j].Frame = b.Frame
		}
		if !sameRecords([]PushRecord{a}, []PushRecord{b}) {
			t.Fatalf("record %d differs from record 0:\n%+v\n%+v", i, b, recs[0])
		}
	}
	if math.Float64bits(recs[1].Dets[0].Obs[2]) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("base64 -0 decoded as %v", recs[1].Dets[0].Obs[2])
	}
}

// TestDecodePushBatchRefusesBadObsBits checks each refusal of a base64
// Obs, and that it names the fault.
func TestDecodePushBatchRefusesBadObsBits(t *testing.T) {
	cases := []struct{ obs, wantErr string }{
		{`"AAAA*AAA8D8="`, "not valid base64"},
		{`"AAAAAAAA8D8"`, "not valid base64"},
		{`"AAAA"`, "3 bytes"},
		{`"AAAAAAAA8H8="`, "component 0 is not finite"},
		{`"AAAAAAAA8D8AAAAAAAD4/w=="`, "component 1 is not finite"},
		{`"AAAAAAAA+H8="`, "not finite"},
		{`true`, "not an array or a base64 string"},
	}
	for _, tc := range cases {
		body := `{"seq":0,"frame":0,"dets":[{"Frame":0,"Rect":{"X":0,"Y":0,"W":1,"H":1},"Obs":` + tc.obs + `}]}`
		_, err := DecodePushBatch(strings.NewReader(body), 0)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Obs %s: got %v, want an error mentioning %q", tc.obs, err, tc.wantErr)
		}
	}
}

// fleetRecords is a fleet-like push body: n consecutive frames of a
// loadgen street-camera stream.
func fleetRecords(tb testing.TB, n int) []PushRecord {
	tb.Helper()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 1, Streams: 1, Frames: 100 + n})
	if err != nil {
		tb.Fatal(err)
	}
	var recs []PushRecord
	for f := 100; f < 100+n; f++ {
		recs = append(recs, PushRecord{Seq: int64(f), Frame: video.FrameIndex(f), Dets: streams[0].Video.Detections[f]})
	}
	return recs
}

// FuzzEncodePushBatch checks the encoder against json.Encoder: the same
// bytes (or both refusing a non-finite value), and a round trip through
// the decoder for every record the protocol admits.
func FuzzEncodePushBatch(f *testing.F) {
	f.Add(int64(0), int64(0), uint64(1), 1.0, 2.0, 3.0, 4.0, []byte{}, 0, -1, true)
	f.Add(int64(7), int64(9), uint64(1<<63), -0.0, 1e-7, 1e21, 5e-324, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 3, 2, true)
	f.Add(int64(1), int64(1), uint64(2), math.NaN(), 1.0, 1.0, 1.0, []byte{}, 0, 0, true)
	f.Add(int64(1), int64(1), uint64(2), 1.0, 1.0, 1.0, 1.0, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, 0, 0, true)
	f.Add(int64(-1), int64(-5), uint64(0), 0.0, 0.0, 0.0, 0.0, []byte(nil), 0, 0, false)
	f.Fuzz(func(t *testing.T, seq, frame int64, id uint64, x, y, w, h float64, obs []byte, class, gt int, haveDets bool) {
		rec := PushRecord{Seq: seq, Frame: video.FrameIndex(frame)}
		if haveDets {
			det := video.BBox{ID: video.BBoxID(id), Frame: rec.Frame, Rect: geom.Rect{X: x, Y: y, W: w, H: h},
				Class: video.ClassID(class), GTObject: video.ObjectID(gt)}
			if obs != nil {
				det.Obs = make([]float64, 0, len(obs)/8)
				for ; len(obs) >= 8; obs = obs[8:] {
					det.Obs = append(det.Obs, math.Float64frombits(binary.LittleEndian.Uint64(obs)))
				}
			}
			rec.Dets = []video.BBox{det, det}
		}
		recs := []PushRecord{validRecord(0, 0), rec}
		var got, want bytes.Buffer
		err := EncodePushBatch(&got, recs)
		werr := oracleEncodePushBatch(&want, recs)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoder wrote\n%s\njson.Encoder wrote\n%s", got.Bytes(), want.Bytes())
		}
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("encoder error %v, json.Encoder error %v", err, werr)
		}
		if err != nil {
			return
		}
		// Canonical bytes decode back to the records, bit for bit,
		// whenever the protocol admits them.
		if _, oerr := oracleDecodePushBatch(bytes.NewReader(want.Bytes()), DefaultMaxLineBytes); oerr != nil {
			return
		}
		back, err := DecodePushBatch(bytes.NewReader(got.Bytes()), DefaultMaxLineBytes)
		if err != nil {
			t.Fatalf("decoder refused canonical bytes: %v\n%s", err, got.Bytes())
		}
		if !sameRecords(back, recs) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", back, recs)
		}
	})
}

func TestEncodePushBatchMatchesJSONEncoder(t *testing.T) {
	recs := fleetRecords(t, 20)
	recs = append(recs, PushRecord{Seq: 200, Frame: 200, Dets: []video.BBox{}},
		PushRecord{Seq: 201, Frame: 201, Dets: []video.BBox{{Frame: 201, Rect: geom.Rect{W: 1, H: 1}, Obs: []float64{}}}})
	var got, want bytes.Buffer
	if err := EncodePushBatch(&got, recs); err != nil {
		t.Fatal(err)
	}
	if err := oracleEncodePushBatch(&want, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encoder and json.Encoder differ:\n%s\n%s", got.Bytes(), want.Bytes())
	}
	back, err := DecodePushBatch(&got, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs[len(recs)-2].Dets = nil // omitempty: an empty dets array is not written
	if !sameRecords(back, recs) {
		t.Fatal("round trip changed the records")
	}
}

func pinAllocs(t *testing.T, name string, max float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
	if got := testing.AllocsPerRun(50, f); got > max {
		t.Errorf("%s: %v allocs/op, want <= %v", name, got, max)
	}
}

// TestPushCodecAllocs pins the codec's allocations: none to encode into
// a reused buffer, and to decode one per record's detections slice, one
// per detection's observation, and a few for the records slice.
func TestPushCodecAllocs(t *testing.T) {
	recs := fleetRecords(t, 20)
	var buf bytes.Buffer
	pinAllocs(t, "EncodePushBatch", 0, func() {
		buf.Reset()
		if err := EncodePushBatch(&buf, recs); err != nil {
			t.Fatal(err)
		}
	})
	body := append([]byte(nil), buf.Bytes()...)
	dets := 0
	for _, r := range recs {
		dets += len(r.Dets)
	}
	var rd bytes.Reader
	pinAllocs(t, "DecodePushBatch", float64(len(recs)+dets+8), func() {
		rd.Reset(body)
		if _, err := DecodePushBatch(&rd, 0); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkDecodePushBatch(b *testing.B) {
	benchDecode(b, DecodePushBatch)
}

func BenchmarkDecodePushBatchOracle(b *testing.B) {
	benchDecode(b, oracleDecodePushBatch)
}

func benchDecode(b *testing.B, decode func(io.Reader, int) ([]PushRecord, error)) {
	var buf bytes.Buffer
	if err := EncodePushBatch(&buf, fleetRecords(b, 20)); err != nil {
		b.Fatal(err)
	}
	var rd bytes.Reader
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(buf.Bytes())
		if _, err := decode(&rd, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePushBatch(b *testing.B) {
	benchEncode(b, EncodePushBatch)
}

func BenchmarkEncodePushBatchOracle(b *testing.B) {
	benchEncode(b, oracleEncodePushBatch)
}

func benchEncode(b *testing.B, encode func(io.Writer, []PushRecord) error) {
	recs := fleetRecords(b, 20)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := encode(&buf, recs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
