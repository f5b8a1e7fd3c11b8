package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// bitwiseDiff walks a and b like reflect.DeepEqual, comparing floats by
// their bits (so NaN payloads, -0 and +0 count), and returns the path of
// the first difference, or "".
func bitwiseDiff(a, b reflect.Value, path string) string {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return path + ": types differ"
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil differs"
			}
			return ""
		}
		return bitwiseDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return path + ": nil differs"
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitwiseDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitwiseDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return path + ": map nil or length differs"
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := bitwiseDiff(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path + ": bool differs"
		}
	case reflect.String:
		if a.String() != b.String() {
			return path + ": string differs"
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint())
		}
	default:
		return path + ": unhandled kind " + a.Kind().String()
	}
	return ""
}

// bulkSession runs a longhorizon session past retirements, so its
// payload holds live boxes with Obs, appearance vectors, a retired
// ledger and a feature cache.
func bulkSession(t testing.TB, frames int, histDir string) *Ingestor {
	t.Helper()
	v, window := longHorizon(t, 1, 1200)
	cfg := Config{WindowLen: window, K: 0.05, Algorithm: cutTMerge()}
	if histDir != "" {
		cfg.History = &HistoryConfig{Dir: histDir}
	}
	in, err := New(track.Tracktor(), longHorizonOracle(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		in.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	return in
}

// TestSessionStateRoundTrip: a session's payload survives format 7 — a
// JSON part and a binary bulk section — deep-equal, floats compared bit
// for bit, in a plain and a history session. Non-finite and signed-zero
// floats, which JSON cannot carry, survive in the bulk arrays.
func TestSessionStateRoundTrip(t *testing.T) {
	for _, history := range []bool{false, true} {
		t.Run(fmt.Sprintf("history=%v", history), func(t *testing.T) {
			dir := ""
			if history {
				dir = t.TempDir()
			}
			st := bulkSession(t, 1000, dir).state()
			if len(st.Retired) == 0 || len(st.Oracle.Cache) == 0 || len(st.Stream.Active) == 0 || st.Stream.Active[0].Boxes[0].Obs == nil {
				t.Fatalf("payload has %d retired tracks, %d cached features, %d active hypotheses: the round trip proves little",
					len(st.Retired), len(st.Oracle.Cache), len(st.Stream.Active))
			}
			for _, special := range []*float64{&st.Stream.Active[0].Boxes[0].Obs[0], &st.Stream.Active[0].Appearance[0], &st.Oracle.Cache[0].Vec[0]} {
				obs := *special
				*special = math.Float64frombits(0x7ff8000000000abc)
				data, err := checkpoint.Seal(st)
				if err != nil {
					t.Fatal(err)
				}
				var back sessionState
				if err := checkpoint.Open(data, &back); err != nil {
					t.Fatal(err)
				}
				if d := bitwiseDiff(reflect.ValueOf(st).Elem(), reflect.ValueOf(&back).Elem(), "sessionState"); d != "" {
					t.Fatalf("round trip differs at %s", d)
				}
				*special = obs
			}
			st.Retired[0].Boxes[0].Rect.X = math.Copysign(0, -1)
			data, err := checkpoint.Seal(st)
			if err != nil {
				t.Fatal(err)
			}
			var back sessionState
			if err := checkpoint.Open(data, &back); err != nil {
				t.Fatal(err)
			}
			if d := bitwiseDiff(reflect.ValueOf(st).Elem(), reflect.ValueOf(&back).Elem(), "sessionState"); d != "" {
				t.Fatalf("round trip differs at %s", d)
			}
		})
	}
}

// bulkHeader matches the bulk length in a sealed checkpoint's header.
var bulkHeader = regexp.MustCompile(`^\{"format":"tmerge/checkpoint","version":\d+,"checksum":"[0-9a-f]{64}","bulk":(\d+),"payload":`)

// bulkLen returns the declared length of a sealed checkpoint's bulk
// section.
func bulkLen(t testing.TB, data []byte) int {
	t.Helper()
	m := bulkHeader.FindSubmatch(data)
	if m == nil {
		t.Fatalf("checkpoint header declares no bulk section: %.160q", data)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil || n > len(data) {
		t.Fatalf("bulk length %q", m[1])
	}
	return n
}

// rawSession seals a session payload's JSON part and any bulk bytes as
// they are, under a valid checksum.
type rawSession struct {
	json, bulk []byte
}

func (p rawSession) MarshalJSON() ([]byte, error)      { return p.json, nil }
func (p rawSession) AppendBulk(dst []byte) []byte      { return append(dst, p.bulk...) }
func (p rawSession) ReadBulk(*checkpoint.Reader) error { return nil }

// FuzzSessionBulk puts arbitrary bytes under a valid checksum as the
// bulk section of a real session payload: the session's bulk reader
// must refuse or accept without panicking or allocating past the
// section (every count is checked against the bytes left), and a state
// it accepts must reseal and reopen to itself bit for bit.
func FuzzSessionBulk(f *testing.F) {
	st := bulkSession(f, 700, "").state()
	// A few of each bulk record, and none of the JSON the bulk reader
	// does not read, keep each run to a few kilobytes.
	st.Results, st.Fed, st.Subscriptions, st.Quarantine.Rejected = nil, nil, nil, nil
	st.Stream.Active, st.Stream.Finished = st.Stream.Active[:2], st.Stream.Finished[:min(1, len(st.Stream.Finished))]
	for _, hs := range [][]track.HypothesisState{st.Stream.Active, st.Stream.Finished} {
		for i := range hs {
			hs[i].Boxes = hs[i].Boxes[:min(3, len(hs[i].Boxes))]
		}
	}
	st.Retired, st.Oracle.Cache = st.Retired[:3], st.Oracle.Cache[:3]
	for _, r := range st.Retired {
		r.Boxes = r.Boxes[:min(3, len(r.Boxes))]
	}
	payload, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	good := st.AppendBulk(nil)
	huge := binary.AppendUvarint(nil, 1<<62)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(append(huge, good...))
	f.Add(append([]byte{1}, huge...))
	f.Add(bytes.Repeat([]byte{0xff}, 16))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, bulk []byte) {
		data, err := checkpoint.Seal(rawSession{payload, bulk})
		if err != nil {
			t.Fatal(err)
		}
		var back sessionState
		if err := checkpoint.Open(data, &back); err != nil {
			return
		}
		again, err := checkpoint.Seal(&back)
		if err != nil {
			t.Fatal(err)
		}
		var back2 sessionState
		if err := checkpoint.Open(again, &back2); err != nil {
			t.Fatalf("accepted state does not reopen: %v", err)
		}
		if d := bitwiseDiff(reflect.ValueOf(&back).Elem(), reflect.ValueOf(&back2).Elem(), "sessionState"); d != "" {
			t.Fatalf("accepted state does not round-trip: %s", d)
		}
	})
}
