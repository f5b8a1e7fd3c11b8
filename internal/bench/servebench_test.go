package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
)

// TestServeBenchDeterministicAndClean pins the deterministic half of
// the servebench row (windows, frames, fingerprint) across repeated
// runs and fleet sizes, and that the gate passes a clean run.
func TestServeBenchDeterministicAndClean(t *testing.T) {
	cfg := ServeBenchConfig{
		Seed:         55,
		StreamCounts: []int{2, 3},
		Frames:       80,
		WindowLen:    40,
		Workers:      2,
		K:            DefaultK,
	}
	rows, err := RunServeBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if fails := CheckServeBench(rows, cfg.Frames); len(fails) > 0 {
		t.Fatalf("gate failed a clean run: %v", fails)
	}

	again, err := RunServeBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].Fingerprint != again[i].Fingerprint {
			t.Fatalf("streams=%d fingerprint not reproducible: %s vs %s",
				rows[i].Streams, rows[i].Fingerprint, again[i].Fingerprint)
		}
		if rows[i].Windows != again[i].Windows || rows[i].Frames != again[i].Frames {
			t.Fatalf("streams=%d deterministic fields drifted between runs", rows[i].Streams)
		}
	}

	// NDJSON round trip, mixed with a foreign row that must be skipped.
	var buf bytes.Buffer
	buf.WriteString(`{"experiment":"parallel_windows","workers":1}` + "\n")
	if err := WriteServeBench(&buf, rows); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeServeBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(decoded), len(rows))
	}
	for i := range rows {
		if decoded[i] != rows[i] {
			t.Fatalf("row %d did not survive the NDJSON round trip: %+v vs %+v", i, decoded[i], rows[i])
		}
	}
}

// TestServeBenchHTTPTransportEquivalent pins the transport contract:
// pushing the fleet over the loopback NDJSON ingress must leave every
// deterministic column — windows, frames, fingerprint — identical to
// the in-process run, so the two rows differ only in wall metrics.
func TestServeBenchHTTPTransportEquivalent(t *testing.T) {
	cfg := ServeBenchConfig{
		Seed:         55,
		StreamCounts: []int{3},
		Frames:       80,
		WindowLen:    40,
		Workers:      2,
		K:            DefaultK,
	}
	inproc, err := RunServeBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = "http"
	overWire, err := RunServeBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fails := CheckServeBench(overWire, cfg.Frames); len(fails) > 0 {
		t.Fatalf("gate failed the http run: %v", fails)
	}
	a, b := inproc[0], overWire[0]
	if a.Transport != "inproc" || b.Transport != "http" {
		t.Fatalf("transport tags %q/%q, want inproc/http", a.Transport, b.Transport)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("transport changed results: inproc %s != http %s", a.Fingerprint, b.Fingerprint)
	}
	if a.Frames != b.Frames || a.Windows != b.Windows || a.DegradedWindows != b.DegradedWindows {
		t.Fatalf("deterministic columns diverged: %+v vs %+v", a, b)
	}

	cfg.Transport = "carrier-pigeon"
	if _, err := RunServeBench(context.Background(), cfg); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestCheckServeBenchFailsDirtyRows pins the gate's failure modes.
func TestCheckServeBenchFailsDirtyRows(t *testing.T) {
	if fails := CheckServeBench(nil, 10); len(fails) != 1 {
		t.Fatalf("empty run: %v", fails)
	}
	rows := []ServeBenchResult{{
		Experiment: serveBenchExperiment, Streams: 2, Frames: 19, Windows: 0, LeakedGoroutines: 1,
	}}
	fails := CheckServeBench(rows, 10)
	if len(fails) != 3 {
		t.Fatalf("want 3 failures (frames, windows, leak), got %v", fails)
	}
}

// WriteServeBench writes rows as line-delimited JSON, one object per
// line, the repo-wide NDJSON convention.
func WriteServeBench(w io.Writer, rows []ServeBenchResult) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
