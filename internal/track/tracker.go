package track

import (
	"fmt"
	"math"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/vecmath"
	"github.com/tmerge/tmerge/internal/video"
)

// Tracker converts per-frame detections into a set of tracks.
type Tracker interface {
	// Name identifies the tracker in reports.
	Name() string
	// Track consumes frames[f] = detections of frame f and returns the
	// resulting track set. Implementations are online: they never look at
	// future frames when associating the current one.
	Track(frames [][]video.BBox) *video.TrackSet
}

// Config parameterises the SORT-family tracking engine. The three paper
// trackers are presets over this engine differing in association cues and
// tolerance to detection gaps — the knobs that control how badly occlusion
// fragments their output.
type Config struct {
	// Name labels the preset.
	Name string
	// MaxAge is the number of consecutive frames a track survives without
	// a matched detection before being terminated. Classic SORT uses 1;
	// larger values bridge short occlusions.
	MaxAge int
	// MinIoU gates association: candidate (track, detection) pairs below
	// this predicted-box IoU are forbidden.
	MinIoU float64
	// UseAppearance enables the appearance affinity term (DeepSORT's deep
	// association metric; Tracktor's ReID-based recovery).
	UseAppearance bool
	// AppearanceGate forbids association when the cosine distance between
	// the track's appearance estimate and the detection exceeds this value.
	AppearanceGate float64
	// AppearanceMomentum is the EMA factor for the track's appearance
	// estimate (0 = always replace, 0.9 = slow update).
	AppearanceMomentum float64
	// MinHits is the number of matched detections required before a track
	// is emitted (filters single-frame noise).
	MinHits int
}

// SORT returns the classic SORT preset: IoU-only association with no
// tolerance for detection gaps. It fragments the most.
func SORT() *Engine {
	return NewEngine(Config{
		Name:    "SORT",
		MaxAge:  1,
		MinIoU:  0.1,
		MinHits: 2,
	})
}

// DeepSORT returns the DeepSORT preset: appearance-augmented association
// with moderate gap tolerance.
func DeepSORT() *Engine {
	return NewEngine(Config{
		Name:               "DeepSORT",
		MaxAge:             12,
		MinIoU:             0.05,
		UseAppearance:      true,
		AppearanceGate:     2.0, // soft cost only; never gates
		AppearanceMomentum: 0.8,
		MinHits:            2,
	})
}

// Tracktor returns the Tracktor preset: the regression-based carry-over is
// modelled as high gap tolerance plus appearance recovery, matching the
// paper's finding that Tracktor fragments least.
func Tracktor() *Engine {
	return NewEngine(Config{
		Name:               "Tracktor",
		MaxAge:             25,
		MinIoU:             0.03,
		UseAppearance:      true,
		AppearanceGate:     2.0, // soft cost only; never gates
		AppearanceMomentum: 0.9,
		MinHits:            2,
	})
}

// UMA returns a preset standing in for the Unified Motion and Affinity
// model (Yin et al.): single-model motion+affinity scoring, modelled as
// strong appearance blending with mid-range gap tolerance — fragmenting
// between DeepSORT and Tracktor, as in the paper's Figure 11.
func UMA() *Engine {
	return NewEngine(Config{
		Name:               "UMA",
		MaxAge:             18,
		MinIoU:             0.04,
		UseAppearance:      true,
		AppearanceGate:     2.0, // soft cost only; never gates
		AppearanceMomentum: 0.85,
		MinHits:            2,
	})
}

// CenterTrack returns a preset standing in for CenterTrack (Zhou et al.):
// point-based tracking with displacement prediction, modelled as motion-
// only association with a generous IoU gate and short memory.
func CenterTrack() *Engine {
	return NewEngine(Config{
		Name:    "CenterTrack",
		MaxAge:  3,
		MinIoU:  0.05,
		MinHits: 2,
	})
}

// Engine is the shared SORT-family tracking implementation.
type Engine struct {
	cfg Config
}

// NewEngine returns a tracking engine for the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.MaxAge < 1 {
		panic(fmt.Sprintf("track: MaxAge must be >= 1, got %d", cfg.MaxAge))
	}
	if cfg.MinHits < 1 {
		cfg.MinHits = 1
	}
	return &Engine{cfg: cfg}
}

// Name implements Tracker.
func (e *Engine) Name() string { return e.cfg.Name }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// hypothesis is the engine's internal per-track state.
type hypothesis struct {
	id         video.TrackID
	kf         *boxKF
	appearance vecmath.Vec
	boxes      []video.BBox
	misses     int // consecutive frames without a match
	hits       int
}

// Track implements Tracker.
func (e *Engine) Track(frames [][]video.BBox) *video.TrackSet {
	st := e.NewStream()
	for f := range frames {
		st.Step(video.FrameIndex(f), frames[f])
	}
	return st.Finish()
}

// Stream is the incremental (online) form of the tracking engine: feed it
// one frame of detections at a time with Step and read the track state at
// any point with Snapshot. It backs the streaming ingestion pipeline,
// which must inspect tracks at window boundaries long before the stream
// ends.
type Stream struct {
	e        *Engine
	active   []*hypothesis
	finished []*hypothesis
	nextID   video.TrackID
	lastStep video.FrameIndex
	started  bool
}

// NewStream returns a fresh online tracking session.
func (e *Engine) NewStream() *Stream {
	return &Stream{e: e, nextID: 1}
}

// Step consumes the detections of frame f. Frames must be fed in strictly
// increasing order; gaps are allowed and age out unmatched tracks.
func (s *Stream) Step(f video.FrameIndex, dets []video.BBox) {
	if s.started && f <= s.lastStep {
		panic(fmt.Sprintf("track: Step frame %d not after %d", f, s.lastStep))
	}
	gap := 1
	if s.started {
		gap = int(f - s.lastStep)
	}
	s.started = true
	s.lastStep = f
	e := s.e

	// Predict active tracks across the (possibly multi-frame) gap.
	for _, h := range s.active {
		for k := 0; k < gap; k++ {
			h.kf.predict()
		}
	}

	// Associate.
	matched := make([]bool, len(dets))
	if len(s.active) > 0 && len(dets) > 0 {
		cost := make([][]float64, len(s.active))
		for i, h := range s.active {
			cost[i] = make([]float64, len(dets))
			for j, d := range dets {
				cost[i][j] = e.assocCost(h, d)
			}
		}
		assign := Hungarian(cost)
		for i, j := range assign {
			if j < 0 {
				continue
			}
			e.absorb(s.active[i], dets[j])
			matched[j] = true
		}
	}

	// Age unmatched tracks; retire the expired ones.
	nextActive := s.active[:0]
	for _, h := range s.active {
		if len(h.boxes) > 0 && h.boxes[len(h.boxes)-1].Frame == f {
			nextActive = append(nextActive, h)
			continue
		}
		h.misses += gap
		if h.misses > e.cfg.MaxAge {
			s.finished = append(s.finished, h)
			continue
		}
		nextActive = append(nextActive, h)
	}
	s.active = nextActive

	// Births.
	for j, d := range dets {
		if matched[j] {
			continue
		}
		c := d.Rect.Center()
		h := &hypothesis{
			id: s.nextID,
			kf: newBoxKF(c.X, c.Y, d.Rect.W, d.Rect.H),
		}
		s.nextID++
		e.absorb(h, d)
		s.active = append(s.active, h)
	}
}

// Snapshot returns the current tracks — retired and still-active — that
// meet the MinHits threshold. Boxes are shared with the stream's internal
// state; callers must not modify them. Active tracks may still grow.
func (s *Stream) Snapshot() []*video.Track {
	var out []*video.Track
	for _, h := range s.finished {
		if h.hits >= s.e.cfg.MinHits {
			out = append(out, &video.Track{ID: h.id, Boxes: h.boxes})
		}
	}
	for _, h := range s.active {
		if h.hits >= s.e.cfg.MinHits {
			out = append(out, &video.Track{ID: h.id, Boxes: h.boxes})
		}
	}
	return out
}

// RetireBefore removes from the stream every finished hypothesis whose
// last box lies before frame before, and returns the removed ones that
// meet the MinHits threshold as tracks, in retirement order. Boxes are
// handed over, not copied: the stream no longer references them. A
// finished hypothesis never changes again, so after this call the
// stream differs from one that kept it only in what Snapshot and State
// include. The cost is proportional to the finished hypotheses the
// stream still holds, not to the stream's history.
func (s *Stream) RetireBefore(before video.FrameIndex) []*video.Track {
	var out []*video.Track
	kept := s.finished[:0]
	for _, h := range s.finished {
		if n := len(h.boxes); n > 0 && h.boxes[n-1].Frame >= before {
			kept = append(kept, h)
			continue
		}
		if h.hits >= s.e.cfg.MinHits {
			out = append(out, &video.Track{ID: h.id, Boxes: h.boxes})
		}
	}
	clear(s.finished[len(kept):])
	s.finished = kept
	return out
}

// Finish retires every remaining active track and returns the final set.
// The stream must not be stepped afterwards.
func (s *Stream) Finish() *video.TrackSet {
	s.finished = append(s.finished, s.active...)
	s.active = nil
	var tracks []*video.Track
	for _, h := range s.finished {
		if h.hits < s.e.cfg.MinHits {
			continue
		}
		tracks = append(tracks, &video.Track{ID: h.id, Boxes: h.boxes})
	}
	return video.NewTrackSet(tracks)
}

// assocCost returns the assignment cost of matching hypothesis h with
// detection d, or +Inf when gated out. Cross-class association is always
// forbidden: a person detection never extends a vehicle track.
func (e *Engine) assocCost(h *hypothesis, d video.BBox) float64 {
	if len(h.boxes) > 0 && h.boxes[0].Class != d.Class {
		return math.Inf(1)
	}
	cx, cy, w, hh := h.kf.state()
	pred := geom.RectFromCenter(geom.Point{X: cx, Y: cy}, w, hh)
	iou := pred.IoU(d.Rect)
	if iou < e.cfg.MinIoU {
		return math.Inf(1)
	}
	cost := 1 - iou
	if e.cfg.UseAppearance && h.appearance != nil && d.Obs != nil {
		ad := cosineDistance(h.appearance, d.Obs)
		if ad > e.cfg.AppearanceGate {
			return math.Inf(1)
		}
		cost = 0.5*cost + 0.5*ad
	}
	return cost
}

// absorb folds detection d into hypothesis h.
func (e *Engine) absorb(h *hypothesis, d video.BBox) {
	c := d.Rect.Center()
	h.kf.update(c.X, c.Y, d.Rect.W, d.Rect.H)
	h.boxes = append(h.boxes, d)
	h.misses = 0
	h.hits++
	if e.cfg.UseAppearance && d.Obs != nil {
		if h.appearance == nil {
			h.appearance = d.Obs.Clone()
		} else {
			m := e.cfg.AppearanceMomentum
			for i := range h.appearance {
				h.appearance[i] = m*h.appearance[i] + (1-m)*d.Obs[i]
			}
		}
	}
}

// cosineDistance returns 1 - cosine similarity, clamped to [0, 2].
func cosineDistance(a, b vecmath.Vec) float64 {
	na, nb := vecmath.Norm2(a), vecmath.Norm2(b)
	if na == 0 || nb == 0 {
		return 1
	}
	sim := vecmath.Dot(a, b) / (na * nb)
	if sim > 1 {
		sim = 1
	}
	if sim < -1 {
		sim = -1
	}
	return 1 - sim
}
