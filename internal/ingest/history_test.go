package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// histSession builds a session over the standard stream-test pipeline
// (WindowLen 400, matching driveQueryStream) with an optional history
// config attached.
func histSession(t *testing.T, algo core.Algorithm, workers int, hc *HistoryConfig) *Ingestor {
	t.Helper()
	oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	in, err := New(track.Tracktor(), oracle, Config{
		WindowLen: 400,
		K:         0.05,
		Algorithm: algo,
		Workers:   workers,
		History:   hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// pushSceneTo replays the scene into a session with driveQueryStream's
// cadence: frame-by-frame to 1000, then a gap that closes several
// windows at once (the parallel-executor path), then the Close flush.
func pushSceneTo(in *Ingestor, dets [][]video.BBox) {
	for f := 0; f <= 1000 && f < len(dets); f++ {
		in.PushAt(video.FrameIndex(f), dets[f])
	}
	last := len(dets) - 1
	in.PushAt(video.FrameIndex(last), dets[last])
	in.Close()
}

// asofAnswers bootstraps fresh operators over a reconstructed view —
// exactly how a historical query is answered — in sqBatch row shape.
func asofAnswers(v query.TrackView) [][][]video.TrackID {
	out := make([][][]video.TrackID, 4)
	for i, s := range sqOps() {
		s.op.Apply(v, v.IDs(), nil)
		out[i] = s.op.Results()
	}
	return out
}

// TestHistorySessionEquivalentToPlain is the tentpole equivalence
// property: for every tested seed × algorithm × worker count, a
// history-enabled session (journaled log, tiered view, periodic seal
// and compaction) produces window results — including merge events and
// per-window query deltas answered from the tiered view — bit-identical
// to a plain session holding the full view in memory, and a cold replay
// of the compacted log reproduces the plain view's state exactly.
func TestHistorySessionEquivalentToPlain(t *testing.T) {
	v := streamScene(t)
	type combo struct {
		algo    string
		seed    uint64
		workers int
	}
	var combos []combo
	for _, name := range []string{"baseline", "spatial", "lcb", "ps", "tmerge"} {
		combos = append(combos, combo{name, 5, 1})
	}
	combos = append(combos,
		combo{"baseline", 5, 4},
		combo{"tmerge", 5, 4},
		combo{"tmerge", 11, 1},
		combo{"tmerge", 11, 4},
	)
	if testing.Short() {
		combos = []combo{{"baseline", 5, 1}, {"tmerge", 5, 1}}
	}

	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("%s-seed%d-w%d", c.algo, c.seed, c.workers), func(t *testing.T) {
			plain := histSession(t, sqAlgorithms(c.seed)[c.algo], c.workers, nil)
			hist := histSession(t, sqAlgorithms(c.seed)[c.algo], c.workers, &HistoryConfig{
				Dir:               t.TempDir(),
				HotHorizon:        800,
				WindowsPerSegment: 3,
				CompactEvery:      2,
			})
			for _, in := range []*Ingestor{plain, hist} {
				for _, s := range sqOps() {
					if _, err := in.Subscribe(s.name, s.op); err != nil {
						t.Fatal(err)
					}
				}
			}
			pushSceneTo(plain, v.Detections)
			pushSceneTo(hist, v.Detections)
			if err := hist.HistoryErr(); err != nil {
				t.Fatalf("history log failed: %v", err)
			}

			// Window results carry the merge events and every query's
			// delta stream; the history side answered them from the
			// tiered view, the plain side from the full live view.
			if !reflect.DeepEqual(plain.Results(), hist.Results()) {
				t.Fatal("window results (events + query deltas) diverged between plain and history sessions")
			}

			// Cold replay of the log — base snapshot plus raw tail after
			// the mid-stream compactions — must reproduce the plain
			// session's full view state bit for bit.
			rv, err := hist.hist.log.ReplayView(-1)
			if err != nil {
				t.Fatalf("ReplayView: %v", err)
			}
			if !reflect.DeepEqual(rv.State(), plain.view.State()) {
				t.Fatal("replayed view state diverged from the plain session's live view")
			}

			// The run must have actually exercised the machinery it
			// claims to prove: compactions folded segments and the tier
			// evicted beyond-horizon tracks.
			if hist.hist.log.RetentionFrame() <= 0 {
				t.Error("compaction never ran (retention frame still 0)")
			}
			hot, cold, _, stats := hist.HistoryStats()
			if stats.Evicted == 0 || cold == 0 {
				t.Errorf("tiering idle: evicted %d, cold %d", stats.Evicted, cold)
			}
			if hot+cold != plain.view.Len() {
				t.Errorf("tier split %d+%d does not cover %d identities", hot, cold, plain.view.Len())
			}
		})
	}
}

// TestHistoryAsOfMatchesBatchAnswers pins time travel: at every
// interior window cut — recorded live as the batch answer over the
// merged tracks at the moment the window committed — AsOf reconstructs
// a view whose bootstrapped operator answers equal that batch answer,
// across a checkpoint/restore boundary in the middle of the stream.
func TestHistoryAsOfMatchesBatchAnswers(t *testing.T) {
	v := streamScene(t)
	dir := t.TempDir()
	mkCfg := func() Config {
		acfg := core.DefaultTMergeConfig(5)
		acfg.TauMax = 1200
		return Config{
			WindowLen: 400,
			K:         0.05,
			Algorithm: core.NewTMerge(acfg),
			History:   &HistoryConfig{Dir: dir, HotHorizon: 800, WindowsPerSegment: 3},
		}
	}
	newOracle := func() *reid.Oracle {
		return reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	}
	in, err := New(track.Tracktor(), newOracle(), mkCfg())
	if err != nil {
		t.Fatal(err)
	}

	type cut struct {
		frame video.FrameIndex
		want  [][][]video.TrackID
	}
	var cuts []cut
	record := func(in *Ingestor, closed []WindowResult) {
		if len(closed) == 0 {
			return
		}
		end := in.lastClosedEnd()
		c := cut{end, sqBatch(clipSet(in.MergedTracks(), end))}
		// The Close flush commits clipped tail windows sharing the final
		// frame as End; AsOf at that frame covers all of them, so the
		// later record supersedes the earlier one.
		if len(cuts) > 0 && cuts[len(cuts)-1].frame == end {
			cuts[len(cuts)-1] = c
			return
		}
		cuts = append(cuts, c)
	}

	const ckptFrame = 1300
	for f := 0; f < ckptFrame; f++ {
		record(in, in.PushAt(video.FrameIndex(f), v.Detections[f]))
	}
	preCkpt := len(cuts)
	if preCkpt == 0 {
		t.Fatal("no window committed before the checkpoint")
	}
	data, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(track.Tracktor(), newOracle(), mkCfg(), data)
	if err != nil {
		t.Fatal(err)
	}
	for f := ckptFrame; f < len(v.Detections); f++ {
		record(resumed, resumed.PushAt(video.FrameIndex(f), v.Detections[f]))
	}
	record(resumed, resumed.Close())

	interior := cuts[:len(cuts)-1]
	if len(interior) < 3 || preCkpt >= len(interior) {
		t.Fatalf("need >=3 interior cuts straddling the checkpoint, have %d (checkpoint after %d)", len(interior), preCkpt)
	}
	for i, c := range interior {
		av, cf, err := resumed.AsOf(c.frame)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", c.frame, err)
		}
		if cf != c.frame {
			t.Fatalf("AsOf(%d) landed on cut %d", c.frame, cf)
		}
		if got := asofAnswers(av); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("cut %d (frame %d, %s checkpoint): AsOf answers diverged from the batch answer recorded live",
				i, c.frame, map[bool]string{true: "before", false: "after"}[i < preCkpt])
		}
	}

	// A frame between cuts resolves to the last committed window before
	// it; a frame before the first commit reports no coverage.
	mid := interior[1].frame + 1
	if _, cf, err := resumed.AsOf(mid); err != nil || cf != interior[1].frame {
		t.Fatalf("AsOf(%d) = cut %d, err %v; want cut %d", mid, cf, err, interior[1].frame)
	}
	if _, cf, err := resumed.AsOf(interior[0].frame - 1); err != nil || cf != -1 {
		t.Fatalf("AsOf before first commit = cut %d, err %v; want -1", cf, err)
	}
}

// TestHistoryCheckpointRestoreEquivalence: a history session interrupted
// by checkpoint/crash/restore — with windows committed after the
// checkpoint that the crash loses — finishes with window results,
// operator states, and replayed view state identical to an
// uninterrupted session's, after the restore truncates the log back to
// the checkpoint position.
func TestHistoryCheckpointRestoreEquivalence(t *testing.T) {
	v := streamScene(t)
	const cut = 1300
	mkCfg := func(dir string) Config {
		acfg := core.DefaultTMergeConfig(5)
		acfg.TauMax = 1200
		return Config{
			WindowLen: 400,
			K:         0.05,
			Algorithm: core.NewTMerge(acfg),
			History:   &HistoryConfig{Dir: dir, HotHorizon: 800, WindowsPerSegment: 3},
		}
	}
	newOracle := func() *reid.Oracle {
		return reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	}
	subscribe := func(t *testing.T, in *Ingestor) []struct {
		name string
		op   query.Incremental
	} {
		ops := sqOps()
		for _, s := range ops {
			if _, err := in.Subscribe(s.name, s.op); err != nil {
				t.Fatal(err)
			}
		}
		return ops
	}

	// Reference: uninterrupted.
	ref, err := New(track.Tracktor(), newOracle(), mkCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	refOps := subscribe(t, ref)
	for f, dets := range v.Detections {
		ref.PushAt(video.FrameIndex(f), dets)
	}
	ref.Close()

	// Interrupted: checkpoint at the cut, keep streaming (these windows
	// reach the log but die with the crash), then restore from the
	// checkpoint in the same directory.
	dir := t.TempDir()
	first, err := New(track.Tracktor(), newOracle(), mkCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	subscribe(t, first)
	for f, dets := range v.Detections[:cut] {
		first.PushAt(video.FrameIndex(f), dets)
	}
	data, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	preWindows := first.hist.log.Windows()
	for f := cut; f < cut+700; f++ {
		first.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	if first.hist.log.Windows() <= preWindows {
		t.Fatal("post-checkpoint stream committed no windows; the truncation path is not exercised")
	}

	resumed, err := Restore(track.Tracktor(), newOracle(), mkCfg(dir), data)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.hist.log.Windows(); got != preWindows {
		t.Fatalf("restore left %d windows in the log, checkpoint covered %d", got, preWindows)
	}
	resumedOps := subscribe(t, resumed)
	for f := cut; f < len(v.Detections); f++ {
		resumed.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	resumed.Close()

	if err := resumed.HistoryErr(); err != nil {
		t.Fatalf("resumed history failed: %v", err)
	}
	if !reflect.DeepEqual(ref.Results(), resumed.Results()) {
		t.Error("window results diverged across the checkpoint cut")
	}
	for i, s := range resumedOps {
		if !reflect.DeepEqual(refOps[i].op.State(), s.op.State()) {
			t.Errorf("%s: operator state diverged across the checkpoint cut", s.name)
		}
	}
	rv, err := resumed.hist.log.ReplayView(-1)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := ref.hist.log.ReplayView(-1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv.State(), wv.State()) {
		t.Error("replayed log state diverged across the checkpoint cut")
	}
}

// TestHistoryRestoreMismatches: the restore path refuses configuration
// that disagrees with the checkpoint about history.
func TestHistoryRestoreMismatches(t *testing.T) {
	v := streamScene(t)
	dir := t.TempDir()
	hin := histSession(t, sqAlgorithms(5)["tmerge"], 1, &HistoryConfig{Dir: dir, HotHorizon: 800})
	for f, dets := range v.Detections[:900] {
		hin.PushAt(video.FrameIndex(f), dets)
	}
	histData, err := hin.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	plain := histSession(t, sqAlgorithms(5)["tmerge"], 1, nil)
	for f, dets := range v.Detections[:900] {
		plain.PushAt(video.FrameIndex(f), dets)
	}
	plainData, err := plain.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	oracle := func() *reid.Oracle {
		return reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	}
	mkCfg := func(hc *HistoryConfig) Config {
		return Config{WindowLen: 400, K: 0.05, Algorithm: sqAlgorithms(5)["tmerge"], History: hc}
	}
	if _, err := Restore(track.Tracktor(), oracle(), mkCfg(nil), histData); err == nil {
		t.Error("history checkpoint restored into a history-less config")
	}
	if _, err := Restore(track.Tracktor(), oracle(), mkCfg(&HistoryConfig{Dir: dir, HotHorizon: 800}), plainData); err == nil {
		t.Error("plain checkpoint restored into a history config")
	}
	if _, err := Restore(track.Tracktor(), oracle(), mkCfg(&HistoryConfig{Dir: dir, HotHorizon: 1200}), histData); err == nil {
		t.Error("horizon mismatch accepted on restore")
	}
	if _, err := Restore(track.Tracktor(), oracle(), mkCfg(&HistoryConfig{Dir: dir, HotHorizon: 800}), histData); err != nil {
		t.Errorf("matching restore failed: %v", err)
	}
}

// TestHistoryConfigValidationAndAsOfErrors covers the config guards and
// the AsOf refusals outside a healthy history session.
func TestHistoryConfigValidationAndAsOfErrors(t *testing.T) {
	bad := []HistoryConfig{
		{Dir: ""},                   // no directory
		{Dir: "x", HotHorizon: 799}, // below 2×WindowLen
		{Dir: "x", HotHorizon: 800, CompactEvery: -1}, // negative knobs
		{Dir: "x", HotHorizon: 800, WindowsPerSegment: -1},
	}
	oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	for i, hc := range bad {
		hc := hc
		cfg := Config{WindowLen: 400, K: 0.05, Algorithm: core.NewBaseline(), History: &hc}
		if _, err := New(track.Tracktor(), oracle, cfg); err == nil {
			t.Errorf("case %d: invalid history config accepted", i)
		}
	}

	plain := histSession(t, core.NewBaseline(), 1, nil)
	if _, _, err := plain.AsOf(100); err == nil {
		t.Error("AsOf on a history-less session succeeded")
	}
}

// TestHistoryRetentionAfterCompaction: compaction trades time-travel
// range for replay cost — AsOf refuses cuts before the retention
// boundary and still answers exactly at and after it.
func TestHistoryRetentionAfterCompaction(t *testing.T) {
	v := streamScene(t)
	in := histSession(t, sqAlgorithms(5)["tmerge"], 1, &HistoryConfig{
		Dir:               t.TempDir(),
		HotHorizon:        800,
		WindowsPerSegment: 2,
		CompactEvery:      2,
	})
	type cut struct {
		frame video.FrameIndex
		want  [][][]video.TrackID
	}
	var cuts []cut
	record := func(closed []WindowResult) {
		if len(closed) == 0 {
			return
		}
		end := in.lastClosedEnd()
		c := cut{end, sqBatch(clipSet(in.MergedTracks(), end))}
		if len(cuts) > 0 && cuts[len(cuts)-1].frame == end {
			cuts[len(cuts)-1] = c
			return
		}
		cuts = append(cuts, c)
	}
	for f, dets := range v.Detections {
		record(in.PushAt(video.FrameIndex(f), dets))
	}
	record(in.Close())
	if err := in.HistoryErr(); err != nil {
		t.Fatal(err)
	}
	retention := in.hist.log.RetentionFrame()
	if retention <= 0 {
		t.Fatal("compaction never ran")
	}
	checked := 0
	for _, c := range cuts {
		av, cf, err := in.AsOf(c.frame)
		if c.frame < retention {
			if err == nil {
				t.Fatalf("AsOf(%d) before retention %d succeeded", c.frame, retention)
			}
			continue
		}
		if err != nil {
			t.Fatalf("AsOf(%d): %v", c.frame, err)
		}
		if cf != c.frame {
			t.Fatalf("AsOf(%d) landed on %d", c.frame, cf)
		}
		if !reflect.DeepEqual(asofAnswers(av), c.want) {
			t.Fatalf("AsOf(%d) diverged from the live batch answer", c.frame)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every cut fell before the retention boundary; nothing was verified")
	}
}

// TestHistoryColdPageFailureFailsSubscribe: a late region subscription
// reads every identity's dwell, cold ones included, from the history
// log. When a sealed segment is gone that read fails, and the failure
// must surface: Subscribe returns it, the history is marked failed, and
// checkpoints are refused — not a bootstrap silently missing rows.
func TestHistoryColdPageFailureFailsSubscribe(t *testing.T) {
	v := streamScene(t)
	in := histSession(t, core.NewBaseline(), 1, &HistoryConfig{
		Dir:               t.TempDir(),
		HotHorizon:        800,
		WindowsPerSegment: 2,
	})
	pushSceneTo(in, v.Detections)
	if err := in.HistoryErr(); err != nil {
		t.Fatal(err)
	}
	if _, cold, _, _ := in.HistoryStats(); cold == 0 {
		t.Fatal("no cold tracks: the late subscription would not page anything")
	}
	segs, err := filepath.Glob(filepath.Join(in.hist.log.Dir(), "seg-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments on disk (%v)", err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}

	if _, err := in.Subscribe("region", query.NewIncRegion(sqRegion)); err == nil {
		t.Fatal("late subscribe over an unreadable cold tier succeeded")
	}
	if in.HistoryErr() == nil {
		t.Fatal("a failed cold page did not mark the history failed")
	}
	if _, err := in.Checkpoint(); err == nil {
		t.Fatal("checkpoint sealed after a failed cold page")
	}
}
