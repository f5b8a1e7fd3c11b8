package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// pipeline bundles the components a session needs, so an interrupted
// run's restore side can assemble a fresh-but-equivalent stack exactly
// the way the original side did.
type pipeline struct {
	engine *track.Engine
	oracle *reid.Oracle
	cfg    Config
}

func newPipeline(algoSeed uint64, batch int) pipeline {
	model := reid.NewModel(7, dataset.AppearanceDim)
	oracle := reid.NewOracle(model, device.NewCPU(device.DefaultCPU))
	acfg := core.DefaultTMergeConfig(algoSeed)
	acfg.TauMax = 4000
	acfg.Batch = batch
	return pipeline{
		engine: track.Tracktor(),
		oracle: oracle,
		cfg:    Config{WindowLen: 1000, K: 0.05, Algorithm: core.NewTMerge(acfg)},
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sessionFingerprint reduces everything externally observable about a
// session to comparable bytes: every window result, the merged track
// set (IDs, frames, geometry, observations — bit-precise via JSON's
// exact float64 round-trip), and the oracle work counters.
func sessionFingerprint(t *testing.T, in *Ingestor) []byte {
	t.Helper()
	return mustJSON(t, struct {
		Results []WindowResult
		Merged  []*video.Track
		Stats   reid.Stats
	}{in.Results(), in.MergedTracks().Sorted(), in.oracle.Stats()})
}

func TestCheckpointReplayEquivalence(t *testing.T) {
	v := streamScene(t)
	cases := []struct {
		name  string
		seed  uint64
		batch int
		cut   int
	}{
		{"tmerge-seed5-cut777", 5, 1, 777},
		{"tmerge-seed11-cut1650", 11, 1, 1650},
		{"tmergeB-seed5-cut1234", 5, 10, 1234},
		{"tmergeB-seed11-cut2001", 11, 10, 2001},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: the uninterrupted session.
			rp := newPipeline(tc.seed, tc.batch)
			ref, err := New(rp.engine, rp.oracle, rp.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, dets := range v.Detections {
				ref.Push(dets)
			}
			ref.Close()

			// Interrupted session: run to the cut, checkpoint, "crash"
			// (drop the ingestor), restore into a freshly assembled
			// pipeline, replay the remainder.
			p1 := newPipeline(tc.seed, tc.batch)
			first, err := New(p1.engine, p1.oracle, p1.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, dets := range v.Detections[:tc.cut] {
				first.Push(dets)
			}
			data, err := first.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			p2 := newPipeline(tc.seed, tc.batch)
			resumed, err := Restore(p2.engine, p2.oracle, p2.cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.FramesSeen() != tc.cut {
				t.Fatalf("restored cursor at %d, checkpointed at %d", resumed.FramesSeen(), tc.cut)
			}
			for _, dets := range v.Detections[tc.cut:] {
				resumed.Push(dets)
			}
			resumed.Close()

			if !bytes.Equal(sessionFingerprint(t, ref), sessionFingerprint(t, resumed)) {
				t.Error("restored session diverged from the uninterrupted one")
			}
			if a, b := rp.oracle.Device().Clock().Elapsed(), p2.oracle.Device().Clock().Elapsed(); a != b {
				t.Errorf("virtual clocks diverged: %v vs %v", a, b)
			}
		})
	}
}

func TestAutoCheckpointCrashRestore(t *testing.T) {
	v := streamScene(t)

	rp := newPipeline(3, 1)
	ref, err := New(rp.engine, rp.oracle, rp.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dets := range v.Detections {
		ref.Push(dets)
	}
	ref.Close()

	// Auto-checkpointing session killed mid-stream: only the sink's last
	// delivery survives the crash.
	var last []byte
	p1 := newPipeline(3, 1)
	cfg := p1.cfg
	cfg.AutoCheckpointEvery = 1
	cfg.CheckpointSink = func(b []byte) error {
		last = append([]byte(nil), b...)
		return nil
	}
	in, err := New(p1.engine, p1.oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const killAt = 1700
	for f, dets := range v.Detections {
		if f == killAt {
			break
		}
		in.Push(dets)
	}
	if err := in.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no auto-checkpoint was emitted before the crash")
	}

	p2 := newPipeline(3, 1)
	resumed, err := Restore(p2.engine, p2.oracle, p2.cfg, last)
	if err != nil {
		t.Fatal(err)
	}
	from := resumed.FramesSeen()
	if from == 0 || from > killAt {
		t.Fatalf("restored cursor %d outside (0, %d]", from, killAt)
	}
	for _, dets := range v.Detections[from:] {
		resumed.Push(dets)
	}
	resumed.Close()

	if !bytes.Equal(sessionFingerprint(t, ref), sessionFingerprint(t, resumed)) {
		t.Error("crash-restored session diverged from the uninterrupted one")
	}
}

func TestRestoreRejectsMismatchedPipeline(t *testing.T) {
	v := streamScene(t)
	p := newPipeline(5, 1)
	in, err := New(p.engine, p.oracle, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dets := range v.Detections[:600] {
		in.Push(dets)
	}
	data, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() pipeline { return newPipeline(5, 1) }

	t.Run("wrong-K", func(t *testing.T) {
		q := fresh()
		q.cfg.K = 0.1
		if _, err := Restore(q.engine, q.oracle, q.cfg, data); err == nil {
			t.Error("mismatched K accepted")
		}
	})
	t.Run("wrong-window-len", func(t *testing.T) {
		q := fresh()
		q.cfg.WindowLen = 800
		if _, err := Restore(q.engine, q.oracle, q.cfg, data); err == nil {
			t.Error("mismatched window length accepted")
		}
	})
	t.Run("wrong-algorithm", func(t *testing.T) {
		q := fresh()
		q.cfg.Algorithm = core.NewBaseline()
		if _, err := Restore(q.engine, q.oracle, q.cfg, data); err == nil {
			t.Error("mismatched algorithm accepted")
		}
	})
	t.Run("wrong-model", func(t *testing.T) {
		q := fresh()
		q.oracle = reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim+2), device.NewCPU(device.DefaultCPU))
		if _, err := Restore(q.engine, q.oracle, q.cfg, data); err == nil {
			t.Error("mismatched model accepted")
		}
	})
	t.Run("wrong-engine", func(t *testing.T) {
		q := fresh()
		q.engine = track.SORT()
		if _, err := Restore(q.engine, q.oracle, q.cfg, data); err == nil {
			t.Error("mismatched tracker engine accepted")
		}
	})
	t.Run("corrupt-bytes", func(t *testing.T) {
		q := fresh()
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x01
		if _, err := Restore(q.engine, q.oracle, q.cfg, mut); err == nil {
			t.Error("corrupted checkpoint accepted")
		}
	})
	t.Run("truncated-bytes", func(t *testing.T) {
		q := fresh()
		if _, err := Restore(q.engine, q.oracle, q.cfg, data[:len(data)/3]); err == nil {
			t.Error("truncated checkpoint accepted")
		}
	})

	// The original bytes still restore after all those rejections: none
	// of them may have consumed or corrupted anything.
	q := fresh()
	if _, err := Restore(q.engine, q.oracle, q.cfg, data); err != nil {
		t.Fatalf("pristine checkpoint no longer restores: %v", err)
	}
}

// hostileVariants returns detections for frame f that the sanitizer must
// quarantine, one per reason class.
func hostileVariants(f video.FrameIndex) []video.BBox {
	nan := math.NaN()
	obs := make([]float64, dataset.AppearanceDim)
	obs[3] = nan
	return []video.BBox{
		{ID: 900001, Frame: f, Rect: geom.Rect{X: nan, Y: 10, W: 20, H: 20}},
		{ID: 900002, Frame: f, Rect: geom.Rect{X: 5, Y: math.Inf(1), W: 20, H: 20}},
		{ID: 900003, Frame: f, Rect: geom.Rect{X: 5, Y: 10, W: 0, H: 20}},
		{ID: 900004, Frame: f, Rect: geom.Rect{X: 5, Y: 10, W: 20, H: -3}},
		{ID: 900005, Frame: f + 7, Rect: geom.Rect{X: 5, Y: 10, W: 20, H: 20}},
		{ID: 900006, Frame: f, Rect: geom.Rect{X: 5, Y: 10, W: 20, H: 20}, Obs: obs},
	}
}

func TestPushQuarantinesHostileInput(t *testing.T) {
	v := streamScene(t)
	const frames = 1200

	clean := newPipeline(5, 1)
	cleanIn, err := New(clean.engine, clean.oracle, clean.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, dets := range v.Detections[:frames] {
		cleanIn.Push(dets)
	}
	cleanIn.Close()

	dirty := newPipeline(5, 1)
	dirtyIn, err := New(dirty.engine, dirty.oracle, dirty.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, dets := range v.Detections[:frames] {
		fi := video.FrameIndex(f)
		// Interleave the real detections with hostile ones; the clean
		// subset must be what the tracker sees.
		mixed := append(append([]video.BBox(nil), hostileVariants(fi)...), dets...)
		dirtyIn.Push(mixed)
		if f%100 == 17 {
			// Transport misbehaviour: a replayed frame and a regressed one.
			dirtyIn.PushAt(fi, dets)
			dirtyIn.PushAt(fi-5, dets)
		}
	}
	dirtyIn.Close()

	rep := dirtyIn.Quarantine()
	for _, reason := range []string{
		ReasonNonFiniteGeometry, ReasonNonPositiveSize, ReasonFrameMismatch,
		ReasonNonFiniteObservation, ReasonFrameDuplicate, ReasonFrameRegressed,
	} {
		if rep.Counts[reason] == 0 {
			t.Errorf("no rejects counted under %q", reason)
		}
	}
	sum := 0
	for _, n := range rep.Counts {
		sum += n
	}
	if sum != rep.TotalRejected || rep.TotalRejected == 0 {
		t.Errorf("reason counts sum to %d, total is %d", sum, rep.TotalRejected)
	}
	if len(rep.Rejected) > DefaultQuarantineCap {
		t.Errorf("dead-letter buffer holds %d entries, cap is %d", len(rep.Rejected), DefaultQuarantineCap)
	}
	if rep.TotalRejected-rep.Dropped != len(rep.Rejected) {
		t.Errorf("retained %d but total-dropped is %d", len(rep.Rejected), rep.TotalRejected-rep.Dropped)
	}

	// The per-window quarantine deltas partition the total.
	winSum := 0
	for _, res := range dirtyIn.Results() {
		winSum += res.Quarantined
	}
	if winSum != rep.TotalRejected {
		t.Errorf("window quarantine deltas sum to %d, total is %d", winSum, rep.TotalRejected)
	}

	// Hostile input must not have changed a single result: compare
	// everything but the quarantine columns against the clean run.
	type shadow struct {
		Results []WindowResult
		Merged  []*video.Track
	}
	strip := func(in *Ingestor) shadow {
		rs := append([]WindowResult(nil), in.Results()...)
		for i := range rs {
			rs[i].Quarantined = 0
		}
		return shadow{rs, in.MergedTracks().Sorted()}
	}
	if !bytes.Equal(mustJSON(t, strip(cleanIn)), mustJSON(t, strip(dirtyIn))) {
		t.Error("hostile input changed the stream's results")
	}
}

func TestQuarantineCapAndCheckpointCarry(t *testing.T) {
	p := newPipeline(5, 1)
	cfg := p.cfg
	cfg.WindowLen = 10
	cfg.QuarantineCap = 4
	in, err := New(p.engine, p.oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 12; f++ {
		in.Push(hostileVariants(video.FrameIndex(f))[:2])
	}
	rep := in.Quarantine()
	if len(rep.Rejected) != 4 {
		t.Fatalf("retained %d rejects, cap is 4", len(rep.Rejected))
	}
	if rep.TotalRejected != 24 || rep.Dropped != 20 {
		t.Fatalf("total/dropped = %d/%d, want 24/20", rep.TotalRejected, rep.Dropped)
	}

	// The ledger — counters, cap, and retained buffer — survives a
	// checkpoint round trip.
	data, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	q := newPipeline(5, 1)
	qcfg := q.cfg
	qcfg.WindowLen = 10
	restored, err := Restore(q.engine, q.oracle, qcfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, rep), mustJSON(t, restored.Quarantine())) {
		t.Error("quarantine ledger did not survive the checkpoint round trip")
	}
}

func TestConfigValidatesDurabilityFields(t *testing.T) {
	algo := core.NewBaseline()
	bad := []Config{
		{WindowLen: 10, K: 0.05, Algorithm: algo, QuarantineCap: -1},
		{WindowLen: 10, K: 0.05, Algorithm: algo, AutoCheckpointEvery: -2},
		{WindowLen: 10, K: 0.05, Algorithm: algo, AutoCheckpointEvery: 3}, // no sink
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid durability config accepted", i)
		}
	}
	ok := Config{WindowLen: 10, K: 0.05, Algorithm: algo,
		AutoCheckpointEvery: 3, CheckpointSink: func([]byte) error { return nil }}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid durability config rejected: %v", err)
	}
}

// TestCheckpointNextFrameMatchesOpen: the unverified cursor scan reads
// the next_frame that a verified checkpoint.Open decodes, on every
// checkpoint a plain and a history session hand their sinks. The scan
// stops inside the JSON part: it reads the same cursor with the binary
// bulk section cut off or overwritten.
func TestCheckpointNextFrameMatchesOpen(t *testing.T) {
	v := streamScene(t)
	for _, history := range []bool{false, true} {
		var sealed [][]byte
		cfg := Config{
			WindowLen:           200,
			K:                   0.05,
			Algorithm:           sqAlgorithms(5)["spatial"],
			AutoCheckpointEvery: 1,
			CheckpointSink: func(data []byte) error {
				sealed = append(sealed, data)
				return nil
			},
		}
		if history {
			cfg.History = &HistoryConfig{Dir: t.TempDir(), HotHorizon: 400, WindowsPerSegment: 2}
		}
		oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
		in, err := New(track.Tracktor(), oracle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for f, dets := range v.Detections[:1100] {
			in.PushAt(video.FrameIndex(f), dets)
		}
		data, err := in.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, data)
		if len(sealed) < 5 {
			t.Fatalf("history=%v: %d checkpoints sealed, want at least 5", history, len(sealed))
		}
		for i, data := range sealed {
			var want struct {
				NextFrame video.FrameIndex `json:"next_frame"`
			}
			if err := checkpoint.Open(data, &want); err != nil {
				t.Fatal(err)
			}
			n := bulkLen(t, data)
			cut := data[:len(data)-n]
			garbled := append(append([]byte(nil), cut...), bytes.Repeat([]byte(`"{[`), n)...)
			for _, scan := range [][]byte{data, cut, garbled} {
				got, err := CheckpointNextFrame(scan)
				if err != nil || got != want.NextFrame {
					t.Errorf("history=%v checkpoint %d (%d of %d bytes): CheckpointNextFrame = %d, %v; checkpoint.Open reads %d",
						history, i, len(scan), len(data), got, err, want.NextFrame)
				}
			}
		}
	}
}

// TestCheckpointNextFrameReadsByPosition: the cursor is read only from
// a payload that starts {"next_frame":<canonical int>, behind a header
// of the layout Seal writes; anything else fails instead of guessing.
func TestCheckpointNextFrameReadsByPosition(t *testing.T) {
	type payload struct {
		NextFrame video.FrameIndex `json:"next_frame"`
		Rest      []int            `json:"rest"`
	}
	data, err := checkpoint.Seal(payload{NextFrame: 17, Rest: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := CheckpointNextFrame(data); err != nil || got != 17 {
		t.Fatalf("CheckpointNextFrame = %d, %v; want 17", got, err)
	}
	end := bytes.Index(data, []byte(`"next_frame":17`)) + len(`"next_frame":17`)
	for i := 0; i < end; i++ {
		if got, err := CheckpointNextFrame(data[:i]); err == nil {
			t.Errorf("truncation at byte %d of %d read cursor %d", i, end, got)
		}
	}
	later, err := checkpoint.Seal(struct {
		PrevFrame video.FrameIndex `json:"prev_frame"`
		NextFrame video.FrameIndex `json:"next_frame"`
	}{PrevFrame: 5, NextFrame: 17})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{"next_frame not first": later}
	for _, spelling := range []string{"017", "-0", "17.0", "1.7e1", "+17", `"17"`, "", "null"} {
		bad["next_frame "+spelling] = bytes.Replace(data, []byte(`"next_frame":17,`), []byte(`"next_frame":`+spelling+`,`), 1)
	}
	version := []byte(`"version":` + strconv.Itoa(checkpoint.Version))
	for name, header := range map[string][]byte{
		"version 0n":       bytes.Replace(data, version, []byte(`"version":0`+strconv.Itoa(checkpoint.Version)), 1),
		"no checksum":      bytes.Replace(data, []byte(`"checksum":`), []byte(`"sum":`), 1),
		"space":            bytes.Replace(data, []byte(`"payload":`), []byte(`"payload": `), 1),
		"escaped /":        bytes.Replace(data, []byte(`tmerge/checkpoint`), []byte(`tmerge\/checkpoint`), 1),
		"payload key only": []byte(`{"payload":{"next_frame":7,"x":1}}`),
		"empty":            nil,
	} {
		bad["header "+name] = header
	}
	for name, b := range bad {
		if got, err := CheckpointNextFrame(b); err == nil {
			t.Errorf("%s: CheckpointNextFrame(%q) = %d, want an error", name, b, got)
		}
	}
}
