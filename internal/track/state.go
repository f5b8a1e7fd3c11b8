package track

import (
	"fmt"

	"github.com/tmerge/tmerge/internal/vecmath"
	"github.com/tmerge/tmerge/internal/video"
)

// The types below are the serialisable mirror of a Stream's full mutable
// state — every hypothesis with its Kalman filter, appearance EMA, box
// history, and age counters, plus the stream cursors. A Stream restored
// from its State and stepped over the same subsequent frames produces
// bit-identical snapshots and track sets to the uninterrupted stream,
// which the checkpoint layer's replay-equivalence guarantee rests on.

// KFState is the full state of one scalar Kalman filter.
type KFState struct {
	X   float64 `json:"x"`
	V   float64 `json:"v"`
	Pxx float64 `json:"pxx"`
	Pxv float64 `json:"pxv"`
	Pvv float64 `json:"pvv"`
	Q   float64 `json:"q"`
	R   float64 `json:"r"`
}

// BoxKFState is the state of the four per-dimension filters of a box.
type BoxKFState struct {
	CX KFState `json:"cx"`
	CY KFState `json:"cy"`
	W  KFState `json:"w"`
	H  KFState `json:"h"`
}

// HypothesisState is the serialisable form of one track hypothesis,
// active or finished. Its bulk arrays, the appearance vector and the
// boxes, are not JSON: the session checkpoint carries them in its binary
// bulk section (internal/ingest).
type HypothesisState struct {
	ID         video.TrackID `json:"id"`
	KF         BoxKFState    `json:"kf"`
	Appearance []float64     `json:"-"`
	Boxes      []video.BBox  `json:"-"`
	Misses     int           `json:"misses"`
	Hits       int           `json:"hits"`
}

// StreamState is the serialisable form of an online tracking session. The
// engine configuration is echoed so a restore against a differently
// configured engine fails loudly instead of silently diverging.
type StreamState struct {
	Config   Config            `json:"config"`
	Active   []HypothesisState `json:"active,omitempty"`
	Finished []HypothesisState `json:"finished,omitempty"`
	NextID   video.TrackID     `json:"next_id"`
	LastStep video.FrameIndex  `json:"last_step"`
	Started  bool              `json:"started"`
}

func kfState(k scalarKF) KFState {
	return KFState{X: k.x, V: k.v, Pxx: k.pxx, Pxv: k.pxv, Pvv: k.pvv, Q: k.q, R: k.r}
}

func kfFromState(st KFState) scalarKF {
	return scalarKF{x: st.X, v: st.V, pxx: st.Pxx, pxv: st.Pxv, pvv: st.Pvv, q: st.Q, r: st.R}
}

func hypState(h *hypothesis) HypothesisState {
	st := HypothesisState{
		ID: h.id,
		KF: BoxKFState{
			CX: kfState(h.kf.cx), CY: kfState(h.kf.cy),
			W: kfState(h.kf.w), H: kfState(h.kf.h),
		},
		Misses: h.misses,
		Hits:   h.hits,
	}
	// Copy the box history: the live slice keeps growing after the
	// snapshot is taken and must not alias the serialised view.
	st.Boxes = append([]video.BBox(nil), h.boxes...)
	if h.appearance != nil {
		st.Appearance = append([]float64(nil), h.appearance...)
	}
	return st
}

func hypFromState(st HypothesisState) (*hypothesis, error) {
	if len(st.Boxes) == 0 && st.Hits > 0 {
		return nil, fmt.Errorf("track: hypothesis %d has %d hits but no boxes", st.ID, st.Hits)
	}
	for i := 1; i < len(st.Boxes); i++ {
		if st.Boxes[i].Frame <= st.Boxes[i-1].Frame {
			return nil, fmt.Errorf("track: hypothesis %d frames not strictly increasing at index %d", st.ID, i)
		}
	}
	h := &hypothesis{
		id: st.ID,
		kf: &boxKF{
			cx: kfFromState(st.KF.CX), cy: kfFromState(st.KF.CY),
			w: kfFromState(st.KF.W), h: kfFromState(st.KF.H),
		},
		boxes:  append([]video.BBox(nil), st.Boxes...),
		misses: st.Misses,
		hits:   st.Hits,
	}
	if st.Appearance != nil {
		h.appearance = vecmath.Vec(append([]float64(nil), st.Appearance...))
	}
	return h, nil
}

// State snapshots the stream's full mutable state. The snapshot is
// detached: stepping the stream afterwards does not change it.
func (s *Stream) State() StreamState {
	st := StreamState{
		Config:   s.e.cfg,
		NextID:   s.nextID,
		LastStep: s.lastStep,
		Started:  s.started,
	}
	for _, h := range s.active {
		st.Active = append(st.Active, hypState(h))
	}
	for _, h := range s.finished {
		st.Finished = append(st.Finished, hypState(h))
	}
	return st
}

// RestoreStream reconstructs an online tracking session from a snapshot
// taken by Stream.State. The snapshot's engine configuration must equal
// this engine's; a mismatch (or an internally inconsistent hypothesis)
// returns an error and no stream.
func (e *Engine) RestoreStream(st StreamState) (*Stream, error) {
	if st.Config != e.cfg {
		return nil, fmt.Errorf("track: stream snapshot was taken under config %+v, engine has %+v", st.Config, e.cfg)
	}
	if st.NextID < 1 {
		return nil, fmt.Errorf("track: stream snapshot has invalid next track ID %d", st.NextID)
	}
	s := &Stream{e: e, nextID: st.NextID, lastStep: st.LastStep, started: st.Started}
	for _, hs := range st.Active {
		h, err := hypFromState(hs)
		if err != nil {
			return nil, err
		}
		s.active = append(s.active, h)
	}
	for _, hs := range st.Finished {
		h, err := hypFromState(hs)
		if err != nil {
			return nil, err
		}
		s.finished = append(s.finished, h)
	}
	return s, nil
}
