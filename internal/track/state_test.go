package track

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/video"
)

func stateScene(t *testing.T) *synth.Video {
	t.Helper()
	cfg := synth.Config{
		Seed: 17, Name: "state", NumFrames: 300, Width: 600, Height: 400,
		ArrivalRate: 0.05, MaxObjects: 6, MinSpan: 30, MaxSpan: 120,
		SpeedMin: 0.5, SpeedMax: 2, SizeMin: 30, SizeMax: 60,
		AppearanceDim: 8, AppearanceNoise: 0.08,
		OcclusionCoverage: 0.5, MissProb: 0.02,
	}
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// cloneState deep-copies a stream snapshot.
func cloneState(st StreamState) StreamState {
	clone := func(hs []HypothesisState) []HypothesisState {
		out := make([]HypothesisState, len(hs))
		for i, h := range hs {
			h.Appearance = append([]float64(nil), h.Appearance...)
			h.Boxes = append([]video.BBox(nil), h.Boxes...)
			for j := range h.Boxes {
				h.Boxes[j].Obs = append(h.Boxes[j].Obs[:0:0], h.Boxes[j].Obs...)
			}
			out[i] = h
		}
		return out
	}
	st.Active, st.Finished = clone(st.Active), clone(st.Finished)
	return st
}

func snapshotJSON(t *testing.T, s *Stream) []byte {
	t.Helper()
	b, err := json.Marshal(video.NewTrackSet(s.Snapshot()).Sorted())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamStateReplayEquivalence is the tracker-level half of the
// checkpoint guarantee: a stream restored from its State and stepped
// over the same remaining frames is indistinguishable from one that was
// never interrupted — including Kalman covariances, appearance EMAs, and
// age counters, all of which shape future associations.
func TestStreamStateReplayEquivalence(t *testing.T) {
	v := stateScene(t)
	for _, cut := range []int{1, 57, 150, 299} {
		ref := Tracktor().NewStream()
		for f, dets := range v.Detections {
			ref.Step(video.FrameIndex(f), dets)
		}

		first := Tracktor().NewStream()
		for f, dets := range v.Detections[:cut] {
			first.Step(video.FrameIndex(f), dets)
		}
		st := first.State()

		// Restore from a copy that shares nothing with the snapshot. The
		// checkpoint transport (JSON plus a binary bulk section) has its
		// own round-trip tests in internal/ingest.
		resumed, err := Tracktor().RestoreStream(cloneState(st))
		if err != nil {
			t.Fatal(err)
		}
		// Detached: stepping the original must not disturb the restored
		// stream's state.
		first.Step(video.FrameIndex(cut), nil)
		for f := cut; f < len(v.Detections); f++ {
			resumed.Step(video.FrameIndex(f), v.Detections[f])
		}

		if !bytes.Equal(snapshotJSON(t, ref), snapshotJSON(t, resumed)) {
			t.Errorf("cut %d: restored stream diverged from uninterrupted one", cut)
		}
	}
}

func TestRestoreStreamRejectsBadSnapshots(t *testing.T) {
	v := stateScene(t)
	s := Tracktor().NewStream()
	for f, dets := range v.Detections[:100] {
		s.Step(video.FrameIndex(f), dets)
	}
	good := s.State()

	t.Run("wrong-engine-config", func(t *testing.T) {
		if _, err := SORT().RestoreStream(good); err == nil {
			t.Error("snapshot accepted by a differently configured engine")
		}
	})
	t.Run("invalid-next-id", func(t *testing.T) {
		bad := good
		bad.NextID = 0
		if _, err := Tracktor().RestoreStream(bad); err == nil {
			t.Error("snapshot with next ID 0 accepted")
		}
	})
	t.Run("non-increasing-frames", func(t *testing.T) {
		bad := good
		if len(bad.Active) == 0 || len(bad.Active[0].Boxes) < 2 {
			t.Skip("fixture produced no multi-box active hypothesis")
		}
		// Corrupt a deep copy, not the shared snapshot.
		mut := cloneState(good)
		mut.Active[0].Boxes[1].Frame = mut.Active[0].Boxes[0].Frame
		if _, err := Tracktor().RestoreStream(mut); err == nil {
			t.Error("snapshot with non-increasing frames accepted")
		}
	})
	t.Run("round-trip-still-works", func(t *testing.T) {
		if _, err := Tracktor().RestoreStream(good); err != nil {
			t.Errorf("pristine snapshot rejected: %v", err)
		}
	})
}
