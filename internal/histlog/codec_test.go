package histlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// decodeStrict is the encoding/json oracle of the line reader: unknown
// fields refused, and nothing but the one value on the line. Decoder.More
// reports false before a stray '}' or ']', so only EOF proves the rest
// is empty.
func decodeStrict(line []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing content after record")
	}
	return nil
}

// oracleLines is the encoding/json form of a segment: every line
// json.Marshal writes for the header, the records and the footer.
func oracleLines(t testing.TB, hdr SegmentHeader, entries []WindowEntry, tracks []trackdb.ViewTrack, ft SegmentFooter) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	put(hdr)
	for i := range entries {
		put(&entries[i])
	}
	for i := range tracks {
		put(&tracks[i])
	}
	put(ft)
	return buf.Bytes()
}

// oddEntries are raw entries whose numbers exercise every spelling
// json.Marshal uses: exponent forms at both ends, signed zero, the
// smallest subnormal, 64-bit integers, and zero and nonzero classes.
func oddEntries() []WindowEntry {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 1.5e300, 5e-324,
		-1.7976931348623157e308, 0.1, 123456789.125, -2.5e-10, 1e-100}
	e := WindowEntry{Window: video.Window{Index: 0, Start: 0, End: math.MaxInt64, Nominal: -3}}
	for i, f := range floats {
		e.Extends = append(e.Extends, Extend{Track: video.TrackID(i * 1e15), Frame: video.FrameIndex(i), CX: f, CY: -f, Class: video.ClassID(i % 3)})
	}
	e.Events = []core.MergeEvent{{Seq: 0, Pair: video.PairKey{A: 1, B: math.MaxInt64}, FromA: 1, FromB: math.MaxInt64, Canon: 1}}
	return []WindowEntry{e, {Window: video.Window{Index: 1, Start: 7, End: math.MaxInt64}}}
}

// oddTracks are base records with nil and empty members and cells.
func oddTracks() []trackdb.ViewTrack {
	return []trackdb.ViewTrack{
		{ID: 0},
		{ID: 1, Members: []video.TrackID{}, Cells: []trackdb.ViewCell{}},
		{ID: 2, Members: []video.TrackID{2, 9, math.MaxInt64}, Cells: []trackdb.ViewCell{
			{Frame: 0, Member: 2, CX: 1e-7, CY: math.Copysign(0, -1)},
			{Frame: 1 << 40, Member: 9, Class: 4, CX: 1e21, CY: 0.3},
		}},
	}
}

// TestEncodeSegmentMatchesJSON: EncodeSegment writes exactly the lines
// json.Marshal writes, and DecodeSegment reads back what encoding/json
// reads from them.
func TestEncodeSegmentMatchesJSON(t *testing.T) {
	st := buildView(genEntries(6), 6).State()
	for name, c := range map[string]struct {
		hdr     SegmentHeader
		entries []WindowEntry
		tracks  []trackdb.ViewTrack
		base    SegmentFooter
	}{
		"raw":       {SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 7, Kind: KindRaw, StartWindow: 0}, genEntries(6), nil, SegmentFooter{}},
		"raw odd":   {SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 1 << 50, Kind: KindRaw}, oddEntries(), nil, SegmentFooter{}},
		"raw empty": {SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindRaw, StartWindow: 3, StartSeq: 9}, nil, nil, SegmentFooter{}},
		"base":      {SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 8, Kind: KindBase}, nil, st.Tracks, SegmentFooter{EndWindow: 6, EndSeq: st.Seq, EndFrame: 29}},
		"base odd":  {SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Index: 9, Kind: KindBase}, nil, oddTracks(), SegmentFooter{EndWindow: 2, EndSeq: 1, EndFrame: -1}},
	} {
		data, ft, err := EncodeSegment(c.hdr, c.entries, c.tracks, c.base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := oracleLines(t, c.hdr, c.entries, c.tracks, ft); !bytes.Equal(data, want) {
			t.Fatalf("%s: EncodeSegment wrote\n%s\njson.Marshal writes\n%s", name, data, want)
		}
		seg, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstOracle(t, data, seg)
	}
}

// checkAgainstOracle decodes every line of an accepted segment with the
// strict encoding/json oracle and requires the reader's values, floats
// compared bit for bit (through their JSON spelling) and nil apart from
// empty.
func checkAgainstOracle(t *testing.T, data []byte, seg *Segment) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	same := func(what string, line []byte, got, oracle any) {
		t.Helper()
		if err := decodeStrict(line, oracle); err != nil {
			t.Fatalf("%s %q: the reader accepts it, encoding/json does not: %v", what, line, err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(oracle)
		if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), reflect.ValueOf(oracle).Elem().Interface()) || !bytes.Equal(a, b) {
			t.Fatalf("%s %q: reader %+v, encoding/json %+v", what, line, got, oracle)
		}
	}
	same("header", lines[0], &seg.Header, new(SegmentHeader))
	same("footer", lines[len(lines)-1], &seg.Footer, new(SegmentFooter))
	for i := range seg.Entries {
		same("entry", lines[1+i], &seg.Entries[i], new(WindowEntry))
	}
	for i := range seg.Tracks {
		same("track", lines[1+i], &seg.Tracks[i], new(trackdb.ViewTrack))
	}
}

// segmentOf assembles a segment from hand-written header and record
// lines, with a footer that matches them (checksum included) unless
// footer is given.
func segmentOf(header string, records []string, footer string) []byte {
	var recs bytes.Buffer
	for _, r := range records {
		recs.WriteString(r + "\n")
	}
	if footer == "" {
		sum := sha256.Sum256(recs.Bytes())
		footer = fmt.Sprintf(`{"records":%d,"end_window":%d,"end_seq":0,"end_frame":4,"checksum":"%s"}`, len(records), len(records), hex.EncodeToString(sum[:]))
	}
	return []byte(header + "\n" + recs.String() + footer + "\n")
}

// TestDecodeSegmentRefusesNonCanonicalLines: lines encoding/json reads
// but EncodeSegment never writes — whitespace, another key order or
// case, other spellings of a number, an escape, an omitempty field
// written out, trailing content — are refused, each under a valid
// checksum. The trailing-bracket header and footer lines were accepted
// while the decoder was encoding/json with a More check.
func TestDecodeSegmentRefusesNonCanonicalLines(t *testing.T) {
	const (
		hdr = `{"format":"tmerge/histseg","version":1,"index":0,"kind":"raw","start_window":0,"start_seq":0}`
		rec = `{"window":{"Index":0,"Start":0,"End":4,"Nominal":5},"extends":[{"track":1,"frame":2,"cx":1.5,"cy":2}]}`
	)
	good := segmentOf(hdr, []string{rec}, "")
	if _, err := DecodeSegment(good); err != nil {
		t.Fatalf("canonical segment refused: %v", err)
	}
	footer := string(bytes.Split(good, []byte{'\n'})[2])
	for name, seg := range map[string][]byte{
		"header trailing ]":   segmentOf(hdr+"]", []string{rec}, ""),
		"header trailing }":   segmentOf(hdr+"}", []string{rec}, ""),
		"header trailing ]]]": segmentOf(hdr+"]]]", []string{rec}, ""),
		"footer trailing ]":   segmentOf(hdr, []string{rec}, footer+"]"),
		"footer trailing }":   segmentOf(hdr, []string{rec}, footer+"}"),
		"header space":        segmentOf(strings.Replace(hdr, `"version":1`, `"version": 1`, 1), []string{rec}, ""),
		"header reordered":    segmentOf(`{"version":1,"format":"tmerge/histseg","index":0,"kind":"raw","start_window":0,"start_seq":0}`, []string{rec}, ""),
		"header key case":     segmentOf(strings.Replace(hdr, `"index"`, `"Index"`, 1), []string{rec}, ""),
		"header escaped /":    segmentOf(strings.Replace(hdr, `tmerge/histseg`, `tmerge\/histseg`, 1), []string{rec}, ""),
		"header 1.0":          segmentOf(strings.Replace(hdr, `"version":1`, `"version":1.0`, 1), []string{rec}, ""),
		"header -0":           segmentOf(strings.Replace(hdr, `"index":0`, `"index":-0`, 1), []string{rec}, ""),
		"header 00":           segmentOf(strings.Replace(hdr, `"index":0`, `"index":00`, 1), []string{rec}, ""),
		"record trailing ]":   segmentOf(hdr, []string{rec + "]"}, ""),
		"record 1.50":         segmentOf(hdr, []string{strings.Replace(rec, `1.5`, `1.50`, 1)}, ""),
		"record 2.0":          segmentOf(hdr, []string{strings.Replace(rec, `"cy":2`, `"cy":2.0`, 1)}, ""),
		"record 2e0":          segmentOf(hdr, []string{strings.Replace(rec, `"cy":2`, `"cy":2e0`, 1)}, ""),
		"record class 0":      segmentOf(hdr, []string{strings.Replace(rec, `"cy":2}`, `"cy":2,"class":0}`, 1)}, ""),
		"record extends []":   segmentOf(hdr, []string{`{"window":{"Index":0,"Start":0,"End":4,"Nominal":5},"extends":[]}`}, ""),
		"record events null":  segmentOf(hdr, []string{strings.Replace(rec, `]}`, `],"events":null}`, 1)}, ""),
		"record unknown key":  segmentOf(hdr, []string{strings.Replace(rec, `]}`, `],"x":1}`, 1)}, ""),
		"record tab":          segmentOf(hdr, []string{"\t" + rec}, ""),
	} {
		if _, err := DecodeSegment(seg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSegmentReaderAllocs pins the line reader's per-line allocations:
// one slice per list (each sized by a count before it is filled), none
// per element.
func TestSegmentReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	entries := genEntries(3)
	data, _, err := EncodeSegment(SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindRaw}, entries, nil, SegmentFooter{})
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Split(data, []byte{'\n'})[3] // window 2: extensions and events
	if got := testing.AllocsPerRun(100, func() {
		var e WindowEntry
		if err := readEntry(line, &e); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("readEntry: %v allocs per line, want 2 (extensions, events)", got)
	}
	tracks := oddTracks()
	data, _, err = EncodeSegment(SegmentHeader{Format: SegmentFormat, Version: SegmentVersion, Kind: KindBase}, nil, tracks, SegmentFooter{})
	if err != nil {
		t.Fatal(err)
	}
	line = bytes.Split(data, []byte{'\n'})[3] // track 2: members and cells
	if got := testing.AllocsPerRun(100, func() {
		var tr trackdb.ViewTrack
		if err := readViewTrack(line, &tr); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("readViewTrack: %v allocs per line, want 2 (members, cells)", got)
	}
}
