package checkpoint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/histlog"
)

// envelope is the struct the envelope layout was defined by before Seal
// and Open wrote and parsed its header by hand. json.Marshal of it is
// the golden form of every sealed file's JSON part; an envelope with a
// bulk section declares its length and appends it after that part.
type envelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"` // hex SHA-256 of Payload and the bulk section
	Bulk     *int            `json:"bulk,omitempty"`
	Payload  json.RawMessage `json:"payload"`
}

// marshalEnvelope seals payload the way SealAs did before it wrote the
// header by hand.
func marshalEnvelope(t *testing.T, format string, version int, payload any) []byte {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	out, err := json.Marshal(envelope{Format: format, Version: version, Checksum: hex.EncodeToString(sum[:]), Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSealMatchesEnvelopeMarshal pins the hand-written header: for the
// checkpoint format and the history manifest format, SealAs writes
// exactly the bytes json.Marshal of the envelope struct writes, HTML and
// line-separator escaping in the payload included.
func TestSealMatchesEnvelopeMarshal(t *testing.T) {
	payloads := []any{
		map[string]any{"name": "<a & b>", "sep": "x y", "vals": []float64{0.1, -2.5e-300, 1e21}},
		[]int{},
		"plain",
		histlog.Manifest{NextIndex: 3, Segments: []histlog.SegmentInfo{
			{Index: 1, Kind: histlog.KindBase, File: "seg-1", Records: 4, EndWindow: 8, EndSeq: 5, EndFrame: 799, Checksum: strings.Repeat("ab", 32)},
			{Index: 2, Kind: histlog.KindRaw, File: "seg-2", Records: 4, StartWindow: 8, EndWindow: 12, StartSeq: 5, EndSeq: 9, EndFrame: 1199, Checksum: strings.Repeat("cd", 32)},
		}},
	}
	formats := []struct {
		format  string
		version int
	}{
		{checkpoint.Format, checkpoint.Version},
		{histlog.ManifestFormat, histlog.ManifestVersion},
		{`odd "quoted" <format>`, -7},
	}
	for _, f := range formats {
		for _, p := range payloads {
			got, err := checkpoint.SealAs(f.format, f.version, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := marshalEnvelope(t, f.format, f.version, p); !bytes.Equal(got, want) {
				t.Fatalf("%s v%d: SealAs wrote\n%s\njson.Marshal of the envelope writes\n%s", f.format, f.version, got, want)
			}
			var back json.RawMessage
			if err := checkpoint.OpenAs(got, f.format, f.version, &back); err != nil {
				t.Fatalf("%s v%d: %v", f.format, f.version, err)
			}
		}
	}
}

func TestOpenRejectsWrongFormatAndVersion(t *testing.T) {
	payload, _ := json.Marshal(map[string]string{"name": "x"})
	mk := func(format string, version int, sum string) []byte {
		b, err := json.Marshal(envelope{Format: format, Version: version, Checksum: sum, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var out map[string]string
	if err := checkpoint.Open(mk("other/format", checkpoint.Version, strings.Repeat("0", 64)), &out); err == nil ||
		!strings.Contains(err.Error(), "format") {
		t.Errorf("wrong format: err = %v", err)
	}
	if err := checkpoint.Open(mk(checkpoint.Format, checkpoint.Version+1, strings.Repeat("0", 64)), &out); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v", err)
	}
	if err := checkpoint.Open(mk(checkpoint.Format, checkpoint.Version-1, strings.Repeat("0", 64)), &out); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("previous version: err = %v", err)
	}
	if err := checkpoint.Open(mk(checkpoint.Format, checkpoint.Version, strings.Repeat("0", 64)), &out); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("bad checksum: err = %v", err)
	}
}

// TestOpenRefusesOtherLayouts: the same four fields in any layout but
// the one Seal writes are refused as malformed — reordered keys,
// whitespace, trailing bytes, other spellings of the same format or
// version — even when format, version and checksum are right.
func TestOpenRefusesOtherLayouts(t *testing.T) {
	good, err := checkpoint.Seal(map[string]int{"n": 1})
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(good, &env); err != nil {
		t.Fatal(err)
	}
	reordered, _ := json.Marshal(map[string]any{
		"format": env.Format, "version": env.Version, "checksum": env.Checksum, "payload": env.Payload,
	})
	indented, _ := json.MarshalIndent(env, "", " ")
	v := strconv.Itoa(checkpoint.Version)
	version := []byte(`"version":` + v)
	for name, data := range map[string][]byte{
		"reordered":   reordered,
		"indented":    indented,
		"trailing":    append(append([]byte(nil), good...), '\n'),
		"leading":     append([]byte(" "), good...),
		"escaped /":   bytes.Replace(good, []byte(`tmerge/checkpoint`), []byte(`tmerge\/checkpoint`), 1),
		"version +n":  bytes.Replace(good, version, []byte(`"version":+`+v), 1),
		"version 0n":  bytes.Replace(good, version, []byte(`"version":0`+v), 1),
		"version n.0": bytes.Replace(good, version, []byte(`"version":`+v+`.0`), 1),
	} {
		var out map[string]int
		if err := checkpoint.Open(data, &out); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s: err = %v, want a malformed-envelope error", name, err)
		}
	}
}

// splitEnvelope decodes the JSON part of accepted envelope bytes with
// encoding/json and returns it with the bytes after it.
func splitEnvelope(t *testing.T, data []byte) (envelope, []byte) {
	t.Helper()
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("Open accepted an envelope json.Unmarshal refuses: %v", err)
	}
	return env, data[dec.InputOffset():]
}

// FuzzOpen drives the hand-written header parser with arbitrary bytes:
// Open must never panic, whatever it accepts must carry exactly the
// header json.Marshal of the envelope struct writes (no second layout
// is accepted) followed by exactly the declared bulk section, and
// resealing the decoded payload must match the envelope marshal byte for
// byte. The same bytes then go in as the bulk section of an envelope
// with a valid checksum, which reaches the bulk reader: it must refuse
// or accept without panicking or allocating past the section, and what
// it accepts must reseal and reopen to the same vectors.
func FuzzOpen(f *testing.F) {
	for _, p := range []any{map[string]int{"n": 1}, []float64{0.5}, "s", nil,
		&bulkPayload{Name: "b", Vecs: [][]float64{{1, 2}, nil, {}}}} {
		data, err := checkpoint.Seal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	good := (&bulkPayload{Vecs: [][]float64{{1, 2}, {3}}}).AppendBulk(nil)
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, bulk := range [][]byte{
		good,
		good[:len(good)-1],                      // truncated float
		good[:1],                                // count past the end
		append(append([]byte(nil), good...), 7), // trailing bytes
		append(huge, good[1:]...),               // huge count
		append([]byte{1}, huge...),              // huge vector length
		{0x80, 0x80, 0x80},                      // truncated varint
	} {
		f.Add(bulk)
		f.Add(sealRaw(f, []byte(`{"name":"r"}`), bulk))
	}
	f.Add([]byte(`{"format":"tmerge/checkpoint","version":4,"checksum":"`))
	f.Add([]byte(`{"format":"a\"b\\","version":-0,"checksum":"x","payload":}`))
	f.Add([]byte(`{"format":"tmerge/checkpoint","version":7,"checksum":"","bulk":99999999999,"payload":{}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out any
		if err := checkpoint.Open(data, &out); err == nil {
			env, bulk := splitEnvelope(t, data)
			head, err := json.Marshal(envelope{Format: env.Format, Version: env.Version, Checksum: env.Checksum, Bulk: env.Bulk, Payload: json.RawMessage("0")})
			if err != nil {
				t.Fatal(err)
			}
			head = head[:len(head)-len("0}")]
			if !bytes.HasPrefix(data, head) {
				t.Fatalf("accepted header of %q is not the canonical %q", data, head)
			}
			if env.Bulk == nil && len(bulk) > 0 || env.Bulk != nil && *env.Bulk != len(bulk) {
				t.Fatalf("accepted %d bytes after the JSON part of %q", len(bulk), data)
			}
			if env.Bulk == nil {
				resealed, err := checkpoint.Seal(out)
				if err != nil {
					t.Fatalf("accepted payload does not reseal: %v", err)
				}
				if want := marshalEnvelope(t, checkpoint.Format, checkpoint.Version, out); !bytes.Equal(resealed, want) {
					t.Fatalf("reseal %s differs from the envelope marshal %s", resealed, want)
				}
			}
		}
		var in bulkPayload
		if err := checkpoint.Open(sealRaw(t, []byte(`{"name":"r"}`), data), &in); err != nil {
			return
		}
		var again bulkPayload
		if err := checkpoint.Open(mustSeal(t, &in), &again); err != nil || !sameBulk(&in, &again) {
			t.Fatalf("accepted bulk section does not reseal to itself: %v", err)
		}
	})
}
