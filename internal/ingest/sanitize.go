package ingest

import (
	"math"
	"sync"

	"github.com/tmerge/tmerge/internal/video"
)

// Quarantine reasons. Each rejected detection (or frame-level reject) is
// counted under exactly one of these, so operators can tell a flaky
// detector (non-finite geometry) from a broken transport (regressed or
// duplicate frames) without reading the dead-letter buffer.
const (
	// ReasonNonFiniteGeometry: a NaN or Inf in the box rectangle. Letting
	// one through would poison every Kalman filter and IoU it touches.
	ReasonNonFiniteGeometry = "non-finite-geometry"
	// ReasonNonPositiveSize: width or height <= 0.
	ReasonNonPositiveSize = "non-positive-size"
	// ReasonNonFiniteObservation: a NaN or Inf appearance component,
	// which would propagate through the ReID embedding into every
	// distance.
	ReasonNonFiniteObservation = "non-finite-observation"
	// ReasonFrameMismatch: the detection's own Frame field disagrees with
	// the frame it was pushed at.
	ReasonFrameMismatch = "frame-mismatch"
	// ReasonFrameRegressed: the whole frame arrived with an index before
	// the last accepted frame (or negative). The frame is dropped; the
	// stream cursor does not move.
	ReasonFrameRegressed = "frame-regressed"
	// ReasonFrameDuplicate: the whole frame re-used the last accepted
	// frame index. First write wins; the replay is dropped.
	ReasonFrameDuplicate = "frame-duplicate"
)

// DefaultQuarantineCap bounds the dead-letter buffer when the
// configuration does not choose a cap. Counters keep counting past the
// cap; only the retained detections are bounded.
const DefaultQuarantineCap = 256

// RejectedDetection is one quarantined input: the detection as received,
// the frame index it was pushed at, and the reason it was refused.
type RejectedDetection struct {
	Frame  video.FrameIndex `json:"frame"`
	Det    video.BBox       `json:"det"`
	Reason string           `json:"reason"`
}

// QuarantineReport is a detached snapshot of the quarantine ledger.
type QuarantineReport struct {
	// TotalRejected counts every reject since the session began
	// (including restored history), regardless of the buffer cap.
	TotalRejected int
	// Dropped counts rejects that were counted but not retained because
	// the dead-letter buffer was full.
	Dropped int
	// Counts breaks TotalRejected down by reason.
	Counts map[string]int
	// Rejected is the retained dead-letter buffer, oldest first, at most
	// cap entries.
	Rejected []RejectedDetection
}

// quarantine is the ingestor's dead-letter ledger: a capped buffer of
// rejected detections plus unbounded per-reason counters. It carries its
// own mutex so Quarantine() snapshots are safe to take from a monitoring
// goroutine while a PushAt is in flight (the serving layer's health
// polls do exactly that); all other Ingestor state remains single-flight.
type quarantine struct {
	mu       sync.Mutex
	cap      int
	total    int
	dropped  int
	counts   map[string]int
	rejected []RejectedDetection
}

func newQuarantine(cap int) *quarantine {
	if cap <= 0 {
		cap = DefaultQuarantineCap
	}
	return &quarantine{cap: cap, counts: make(map[string]int)}
}

// add records one reject. The counter always increments; the detection
// itself is retained only while the buffer has room. Non-finite float
// components are zeroed in the retained copy — the reason string already
// records what was wrong, and the ledger must stay JSON-serialisable
// (checkpoints embed it; JSON cannot carry NaN or Inf).
func (q *quarantine) add(f video.FrameIndex, det video.BBox, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.total++
	q.counts[reason]++
	if len(q.rejected) >= q.cap {
		q.dropped++
		return
	}
	q.rejected = append(q.rejected, RejectedDetection{Frame: f, Det: scrubNonFinite(det), Reason: reason})
}

// totalCount returns the all-time reject counter under the ledger lock.
func (q *quarantine) totalCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// scrubNonFinite returns det with every NaN/Inf float component replaced
// by zero, copying Obs only when it needs scrubbing.
func scrubNonFinite(det video.BBox) video.BBox {
	finite := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	det.Rect.X = finite(det.Rect.X)
	det.Rect.Y = finite(det.Rect.Y)
	det.Rect.W = finite(det.Rect.W)
	det.Rect.H = finite(det.Rect.H)
	for i, v := range det.Obs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			scrubbed := append([]float64(nil), det.Obs...)
			for j := i; j < len(scrubbed); j++ {
				scrubbed[j] = finite(scrubbed[j])
			}
			det.Obs = scrubbed
			break
		}
	}
	return det
}

// addFrame records a frame-level reject covering every detection in the
// frame. An empty frame still counts once, so a stream of bogus empty
// frames remains observable.
func (q *quarantine) addFrame(f video.FrameIndex, dets []video.BBox, reason string) {
	if len(dets) == 0 {
		q.add(f, video.BBox{Frame: f}, reason)
		return
	}
	for _, d := range dets {
		q.add(f, d, reason)
	}
}

func (q *quarantine) report() QuarantineReport {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := QuarantineReport{
		TotalRejected: q.total,
		Dropped:       q.dropped,
		Counts:        make(map[string]int, len(q.counts)),
		Rejected:      append([]RejectedDetection(nil), q.rejected...),
	}
	for k, v := range q.counts {
		r.Counts[k] = v
	}
	return r
}

func (q *quarantine) state() quarantineState {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := quarantineState{
		Cap:           q.cap,
		TotalRejected: q.total,
		Dropped:       q.dropped,
		Rejected:      append([]RejectedDetection(nil), q.rejected...),
	}
	if len(q.counts) > 0 {
		st.Counts = make(map[string]int, len(q.counts))
		for k, v := range q.counts {
			st.Counts[k] = v
		}
	}
	return st
}

func quarantineFromState(st quarantineState) *quarantine {
	q := newQuarantine(st.Cap)
	q.total = st.TotalRejected
	q.dropped = st.Dropped
	for k, v := range st.Counts {
		q.counts[k] = v
	}
	q.rejected = st.Rejected
	return q
}

// classifyDetection vets one detection pushed at frame f. It returns the
// quarantine reason and false for a hostile detection, or ok for a clean
// one. The checks mirror video.BBox.Validate but attribute each failure
// to a reason, and additionally pin the detection to the push frame.
func classifyDetection(f video.FrameIndex, b video.BBox) (reason string, ok bool) {
	for _, v := range [...]float64{b.Rect.X, b.Rect.Y, b.Rect.W, b.Rect.H} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ReasonNonFiniteGeometry, false
		}
	}
	if b.Rect.W <= 0 || b.Rect.H <= 0 {
		return ReasonNonPositiveSize, false
	}
	if b.Frame != f {
		return ReasonFrameMismatch, false
	}
	for _, v := range b.Obs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ReasonNonFiniteObservation, false
		}
	}
	return "", true
}
