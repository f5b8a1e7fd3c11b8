package checkpoint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/histlog"
)

// envelope is the struct the envelope layout was defined by before Seal
// and Open wrote and parsed its header by hand. json.Marshal of it is
// the golden form of every sealed file.
type envelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"` // hex SHA-256 of Payload
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
	for name, data := range map[string][]byte{
		"reordered":   reordered,
		"indented":    indented,
		"trailing":    append(append([]byte(nil), good...), '\n'),
		"leading":     append([]byte(" "), good...),
		"escaped /":   bytes.Replace(good, []byte(`tmerge/checkpoint`), []byte(`tmerge\/checkpoint`), 1),
		"version +4":  bytes.Replace(good, []byte(`"version":4`), []byte(`"version":+4`), 1),
		"version 04":  bytes.Replace(good, []byte(`"version":4`), []byte(`"version":04`), 1),
		"version 4.0": bytes.Replace(good, []byte(`"version":4`), []byte(`"version":4.0`), 1),
	} {
		var out map[string]int
		if err := checkpoint.Open(data, &out); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s: err = %v, want a malformed-envelope error", name, err)
		}
	}
}

// FuzzOpen drives the hand-written header parser with arbitrary bytes:
// Open must never panic, whatever it accepts must carry exactly the
// header json.Marshal of the envelope struct writes (no second layout
// is accepted), and resealing the decoded payload must match the
// envelope marshal byte for byte.
func FuzzOpen(f *testing.F) {
	for _, p := range []any{map[string]int{"n": 1}, []float64{0.5}, "s", nil} {
		data, err := checkpoint.Seal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"format":"tmerge/checkpoint","version":4,"checksum":"`))
	f.Add([]byte(`{"format":"a\"b\\","version":-0,"checksum":"x","payload":}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out any
		if err := checkpoint.Open(data, &out); err != nil {
			return
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("Open accepted an envelope json.Unmarshal refuses: %v", err)
		}
		head, err := json.Marshal(envelope{Format: env.Format, Version: env.Version, Checksum: env.Checksum, Payload: json.RawMessage("0")})
		if err != nil {
			t.Fatal(err)
		}
		head = head[:len(head)-len("0}")]
		if !bytes.HasPrefix(data, head) {
			t.Fatalf("accepted header of %q is not the canonical %q", data, head)
		}
		resealed, err := checkpoint.Seal(out)
		if err != nil {
			t.Fatalf("accepted payload does not reseal: %v", err)
		}
		if want := marshalEnvelope(t, checkpoint.Format, checkpoint.Version, out); !bytes.Equal(resealed, want) {
			t.Fatalf("reseal %s differs from the envelope marshal %s", resealed, want)
		}
	})
}
