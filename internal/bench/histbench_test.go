package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// smallHistBench is a seconds-scale shape exercising every moving part:
// sealing every 4 windows, compacting every 3 sealed segments, a tight
// 2×L horizon, and enough windows that cohorts age out repeatedly.
func smallHistBench(dir string) HistBenchConfig {
	return HistBenchConfig{
		Seed:                 7,
		Windows:              30,
		WindowLen:            20,
		TracksPerWindow:      8,
		BoxesPerTrack:        2,
		MergesPerWindow:      3,
		HotHorizon:           40,
		WindowsPerSegment:    4,
		CompactEvery:         3,
		AsOfProbes:           3,
		MaxHeapBytesPerTrack: 600,
		HeapGateMinTracks:    100_000,
	}
}

// TestHistBenchSmall runs the benchmark at test scale and pins its
// structural guarantees: equivalence at the final cut, a populated cold
// tier with zero rehydrations, compaction firing, the hot-cell gate
// passing, and the heap gate skipping loudly below the measurability
// floor.
func TestHistBenchSmall(t *testing.T) {
	cfg := smallHistBench(t.TempDir())
	cfg.Dir = t.TempDir()
	var buf bytes.Buffer
	row, statuses, err := HistBench(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fails := CheckHistBench([]HistBenchRow{row}, statuses, cfg.CompactEvery); len(fails) > 0 {
		t.Fatalf("check failed: %v", fails)
	}
	if !row.Match {
		t.Error("final AsOf answer diverged from the live view")
	}
	if row.Tracks != cfg.Windows*cfg.TracksPerWindow {
		t.Errorf("fed %d tracks, want %d", row.Tracks, cfg.Windows*cfg.TracksPerWindow)
	}
	if row.ColdTracks == 0 || row.Compactions == 0 {
		t.Errorf("cold=%d compactions=%d: the 2×L horizon and CompactEvery=3 must both fire", row.ColdTracks, row.Compactions)
	}
	if row.RetentionFrame < 0 {
		t.Error("compacted log reports no retention boundary")
	}
	if row.AsOfRows == 0 {
		t.Error("AsOf probes answered zero rows despite per-window merges")
	}
	if len(statuses) != 2 {
		t.Fatalf("got %d gate statuses, want 2", len(statuses))
	}
	byGate := map[string]GateStatus{}
	for _, st := range statuses {
		byGate[st.Gate] = st
	}
	if st := byGate[GateHistHotCells]; st.Status != GateOK {
		t.Errorf("hot-cells gate %s: %s", st.Status, st.Reason)
	}
	// 240 tracks is far below the floor: the heap gate must skip, not
	// silently pass, and say why.
	if st := byGate[GateHistHeapGrowth]; st.Status != GateSkipped || !strings.Contains(st.Reason, "floor") {
		t.Errorf("heap gate below the floor: status %s, reason %q", st.Status, st.Reason)
	}
	if row.HeapBytesPerTrack != -1 {
		t.Errorf("unmeasured heap growth reported %v, want -1", row.HeapBytesPerTrack)
	}
	if !strings.Contains(buf.String(), "gate hist_heap_growth skipped") {
		t.Error("skipped heap gate not echoed to the run log")
	}
}

// TestHistBenchDeterministic pins that two runs of the same
// configuration produce identical structural rows (wall fields excluded
// by construction: no Clock is injected).
func TestHistBenchDeterministic(t *testing.T) {
	cfg := smallHistBench("")
	run := func() HistBenchRow {
		c := cfg
		c.Dir = t.TempDir()
		row, _, err := RunHistBench(c)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestHistBenchRoundTrip pins the NDJSON encode/decode pair and that
// DecodeHistBench skips rows of other experiments.
func TestHistBenchRoundTrip(t *testing.T) {
	cfg := smallHistBench("")
	cfg.Dir = t.TempDir()
	row, statuses, err := HistBench(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHistBench(&buf, row, statuses); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rows, err := DecodeHistBench(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != row {
		t.Fatalf("round trip: got %+v, want %+v", rows, row)
	}
	sts, err := DecodeGateStatuses(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != len(statuses) {
		t.Fatalf("gate rows: got %d, want %d", len(sts), len(statuses))
	}
}

// TestHistBenchRejectsBadConfig pins the validation errors.
func TestHistBenchRejectsBadConfig(t *testing.T) {
	cases := []func(*HistBenchConfig){
		func(c *HistBenchConfig) { c.Dir = "" },
		func(c *HistBenchConfig) { c.Windows = 0 },
		func(c *HistBenchConfig) { c.BoxesPerTrack = c.WindowLen + 1 },
		func(c *HistBenchConfig) { c.HotHorizon = c.WindowLen },
		func(c *HistBenchConfig) { c.MergesPerWindow = -1 },
	}
	for i, mutate := range cases {
		cfg := smallHistBench("")
		cfg.Dir = t.TempDir()
		mutate(&cfg)
		if _, _, err := RunHistBench(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// WriteHistBench appends the result row and its gate statuses as
// line-delimited JSON — the bench-artifact convention.
func WriteHistBench(w io.Writer, row HistBenchRow, statuses []GateStatus) error {
	if err := json.NewEncoder(w).Encode(row); err != nil {
		return err
	}
	return WriteGateStatuses(w, statuses)
}
