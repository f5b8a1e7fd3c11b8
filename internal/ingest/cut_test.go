package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// viewState is the session's view state, nil when it has none. A plain
// view is never evicted, so its state is the whole view; a history
// view's state is the hot tier, the part the hot horizon keeps in
// memory.
func viewState(in *Ingestor) *trackdb.ViewState {
	if in.view == nil {
		return nil
	}
	st := in.view.State()
	return &st
}

// cutSession builds one longhorizon session for the cut tests, fresh or
// restored from data, and subscribes its standing query. A restored
// session adopts the checkpointed operator state.
func cutSession(t *testing.T, window int, algo func() core.Algorithm, workers int, histDir string, data []byte) *Ingestor {
	t.Helper()
	cfg := Config{WindowLen: window, K: 0.05, Algorithm: algo(), Workers: workers}
	if histDir != "" {
		cfg.History = &HistoryConfig{Dir: histDir, WindowsPerSegment: 2, CompactEvery: 2}
	}
	oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	var in *Ingestor
	var err error
	if data == nil {
		in, err = New(track.Tracktor(), oracle, cfg)
	} else {
		in, err = Restore(track.Tracktor(), oracle, cfg, data)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Subscribe("count", query.NewIncCount(query.CountQuery{MinFrames: 30})); err != nil {
		t.Fatal(err)
	}
	return in
}

// cutTMerge is TMerge with a small budget: the cut tests restore a
// hundred sessions per arm, and the budget does not change what they
// prove.
func cutTMerge() core.Algorithm {
	cfg := core.DefaultTMergeConfig(1)
	cfg.TauMax = 100
	return core.NewTMerge(cfg)
}

// TestCheckpointCarriesFeedCursors: the view feed cursors are session
// state, not derivable from the last committed window. On longhorizon
// seed 2, a plain session with a standing subscription checkpointed
// after frame 291 holds hypotheses that became visible after window 0
// (End 199) committed: the view has none of their boxes yet, including
// boxes at or before that End. The restored session must carry exactly
// the uninterrupted session's cursors and view, or the next window
// skips those boxes. The checkpoint itself holds no view, and names the
// previous window's tracks by ID only.
func TestCheckpointCarriesFeedCursors(t *testing.T) {
	v, window := longHorizon(t, 2, 1200)
	in := cutSession(t, window, cutTMerge, 1, "", nil)
	for f := 0; f <= unfedCut; f++ {
		in.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	// The cut must hold a track with a box at or before the last
	// committed End that the view has not received: a cursor derived
	// from that End would skip it.
	end, unfed := in.lastClosedEnd(), 0
	for _, tr := range in.stream.Snapshot() {
		if in.fed[tr.ID] == 0 && tr.Boxes[0].Frame <= end {
			unfed++
		}
	}
	if unfed == 0 {
		t.Fatalf("no visible track at frame %d holds unfed boxes at or before frame %d: the cut proves nothing", unfedCut, end)
	}
	data, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The payload holds no view, and names the previous window's tracks
	// by ID.
	var payload map[string]json.RawMessage
	if err := checkpoint.Open(data, &payload); err != nil {
		t.Fatal(err)
	}
	var prevTc []video.TrackID
	if err := json.Unmarshal(payload["prev_tc"], &prevTc); err != nil || len(prevTc) == 0 {
		t.Errorf("prev_tc is not a non-empty list of track IDs (%v): %s", err, payload["prev_tc"])
	}
	if _, ok := payload["view"]; ok {
		t.Error("checkpoint payload has a view section")
	}
	restored := cutSession(t, window, cutTMerge, 1, "", data)
	if !reflect.DeepEqual(restored.fed, in.fed) {
		t.Errorf("restored feed cursors differ from the uninterrupted session's (%d unfed tracks)", unfed)
	}
	if !reflect.DeepEqual(viewState(restored), viewState(in)) {
		t.Error("restored view state differs from the uninterrupted session's")
	}
}

// cutPoint is what the every-cut tests compare between a restored
// session and the uninterrupted one at one frame.
type cutPoint struct {
	view        *trackdb.ViewState
	fed         map[video.TrackID]int
	results     []WindowResult
	ops         []query.OperatorState
	fingerprint string
}

func capture(in *Ingestor, full bool) cutPoint {
	p := cutPoint{view: viewState(in), fed: maps.Clone(in.fed), results: in.Results()}
	if full {
		for _, name := range in.Subscriptions() {
			p.ops = append(p.ops, in.Operator(name).State())
		}
		p.fingerprint = in.Result().Fingerprint()
	}
	return p
}

func (p cutPoint) diff(ref cutPoint) string {
	switch {
	case !reflect.DeepEqual(p.view, ref.view):
		return "view state"
	case !reflect.DeepEqual(p.fed, ref.fed):
		return "feed cursors"
	case !reflect.DeepEqual(p.results, ref.results):
		return "window results"
	case !reflect.DeepEqual(p.ops, ref.ops):
		return "operator states"
	case p.fingerprint != ref.fingerprint:
		return "fingerprint"
	}
	return ""
}

// copyDir copies the flat history directory src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// The every-cut schedule on longhorizon seed 2 (window 200): frames are
// pushed one by one to cutTo, then frameJump closes windows 2 and 3 in
// one batch. A checkpoint is taken after every frame of window 1's
// stride (cutFrom..cutTo): from just after window 0's commit to window
// 1's. With -short, only every tenth cut runs, plus unfedCut, the cut
// TestCheckpointCarriesFeedCursors examines, and cutTo, the first cut
// with retired tracks.
const (
	cutFrom, cutTo = 200, 299
	frameJump      = 499
	unfedCut       = 291
)

// driveCuts checkpoints one session after every frame of the stride,
// restores each checkpoint into a freshly assembled pipeline, and
// requires the restored session to match an uninterrupted one at the
// cut (view, feed cursors, window results) and after the rest of the
// schedule (also operator states and fingerprint).
func driveCuts(t *testing.T, v *synth.Video, window int, algo func() core.Algorithm, history bool, workers int) {
	dir := func() string {
		if history {
			return t.TempDir()
		}
		return ""
	}
	push := func(in *Ingestor, from, to int) {
		for f := from; f <= to; f++ {
			in.PushAt(video.FrameIndex(f), v.Detections[f])
		}
	}
	finish := func(in *Ingestor, from int) cutPoint {
		push(in, from, cutTo)
		in.PushAt(frameJump, v.Detections[frameJump])
		if err := in.HistoryErr(); err != nil {
			t.Fatal(err)
		}
		return capture(in, true)
	}

	// The uninterrupted session, never checkpointed.
	ref := cutSession(t, window, algo, workers, dir(), nil)
	atCut := make(map[int]cutPoint)
	for f := 0; f <= cutTo; f++ {
		push(ref, f, f)
		if f >= cutFrom {
			atCut[f] = capture(ref, false)
		}
	}
	want := finish(ref, cutTo+1)

	src := cutSession(t, window, algo, workers, dir(), nil)
	push(src, 0, cutFrom-1)
	for cut := cutFrom; cut <= cutTo; cut++ {
		push(src, cut, cut)
		if testing.Short() && cut%10 != 0 && cut != unfedCut && cut != cutTo {
			continue
		}
		data, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		histDir := ""
		if history {
			histDir = copyDir(t, src.cfg.History.Dir)
		}
		in := cutSession(t, window, algo, workers, histDir, data)
		if d := capture(in, false).diff(atCut[cut]); d != "" {
			t.Fatalf("cut after frame %d: restored %s differ from the uninterrupted session's", cut, d)
		}
		if d := finish(in, cut+1).diff(want); d != "" {
			t.Fatalf("cut after frame %d: %s differ from the uninterrupted session's at frame %d", cut, d, frameJump)
		}
	}
}

// runCuts runs the every-cut check for TMerge and LCB. Each mode runs
// each algorithm at one worker count and the other mode at the other,
// so the two tests together cover every algorithm, mode and worker
// count at half the cost of the full product.
func runCuts(t *testing.T, history bool) {
	v, window := longHorizon(t, 2, 1200)
	lcb := func() core.Algorithm { return core.NewLCB(100, 1) }
	workers := map[bool][2]int{false: {1, 2}, true: {2, 1}}[history]
	for i, a := range []struct {
		name string
		mk   func() core.Algorithm
	}{{"TMerge", cutTMerge}, {"LCB", lcb}} {
		t.Run(fmt.Sprintf("%s/w%d", a.name, workers[i]), func(t *testing.T) {
			t.Parallel()
			driveCuts(t, v, window, a.mk, history, workers[i])
		})
	}
}

// TestCheckpointCarriesViewAtEveryCut: a plain session with a standing
// subscription, checkpointed after every frame of one window stride (not
// only when a window closes) and restored, rebuilds exactly the view,
// feed cursors and results the uninterrupted session holds at that cut,
// and finishes with the same window results, operator state and
// fingerprint — for TMerge and LCB, with a gap that closes several
// windows in one batch after the cut.
func TestCheckpointCarriesViewAtEveryCut(t *testing.T) { runCuts(t, false) }

// TestHistoryCheckpointAtEveryCut is TestCheckpointCarriesViewAtEveryCut
// for history sessions: each checkpoint is restored over a copy of the
// history directory as it stood at the cut, and the replayed, re-tiered
// view must match the uninterrupted session's.
func TestHistoryCheckpointAtEveryCut(t *testing.T) { runCuts(t, true) }
