// Package ingress is tmerged's network boundary: a stdlib-only HTTP/1.1
// + NDJSON frame-push protocol over the serve.Manager, and a retrying
// client speaking it with per-request deadlines and deterministic
// seeded backoff.
//
// Delivery is at-least-once made effectively exactly-once. Every push
// record carries a per-stream sequence number assigned by the client in
// strictly increasing order; the server acks the high-water mark and
// idempotently discards records whose sequence or frame index it has
// already settled, so a client that times out and resends (or a proxy
// that truncates a response after the server processed the request)
// cannot double-feed the frame cursor. Backpressure and admission
// surface as protocol: a full stream queue is 429 + Retry-After, an
// admission or drain refusal is 503, a malformed record is 400 with a
// typed JSON body — never a dropped connection. DESIGN.md §13 specifies
// the wire protocol, the sequence/dedup invariant, the drain state
// machine, and the restart-equivalence argument.
package ingress

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"github.com/tmerge/tmerge/internal/video"
)

// Error codes carried in ErrorBody.Code; stable protocol surface.
const (
	// CodeOverloaded maps ErrOverloaded: the stream's frame queue is
	// full. Retry after the hinted delay (HTTP 429).
	CodeOverloaded = "overloaded"
	// CodeAdmission maps ErrNotAdmitted: the stream is parked awaiting
	// admission within the window budget (HTTP 503).
	CodeAdmission = "admission"
	// CodeDraining maps ErrDraining/ErrStopped: the daemon is draining to
	// checkpoint or already shut down; reconnect to its successor
	// (HTTP 503).
	CodeDraining = "draining"
	// CodeUnknownStream reports an operation naming no registered stream
	// (HTTP 404); clients reattach by re-registering.
	CodeUnknownStream = "unknown_stream"
	// CodeStreamClosed reports a push to a finished stream (HTTP 409).
	CodeStreamClosed = "stream_closed"
	// CodeMismatch reports a re-registration whose parameters disagree
	// with the live stream's (HTTP 409).
	CodeMismatch = "mismatch"
	// CodeBadRequest reports a malformed or protocol-violating request
	// body (HTTP 400). Not retryable.
	CodeBadRequest = "bad_request"
	// CodeInternal reports a server-side failure (HTTP 500).
	CodeInternal = "internal"
)

// RegisterRequest opens (or, after a daemon restart, re-attaches to) a
// stream. Registration is idempotent: re-registering a live stream with
// identical parameters succeeds and returns its current cursor, so a
// client that lost the first response can safely retry.
type RegisterRequest struct {
	// Seed keys the stream's pipeline; the daemon's spec factory decides
	// what it seeds.
	Seed uint64 `json:"seed"`
	// WindowLen overrides the daemon's default window length when
	// positive.
	WindowLen int `json:"window_len,omitempty"`
	// CheckpointEvery overrides the daemon's periodic-checkpoint cadence
	// (windows per checkpoint) when positive.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// QueueCap overrides the stream's frame-queue bound when positive.
	QueueCap int `json:"queue_cap,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	Stream string `json:"stream"`
	// NextFrame is the authoritative resume point: the first frame index
	// the server will accept. 0 for a fresh stream; the restored cursor
	// when the daemon resumed the stream from a checkpoint.
	NextFrame int64 `json:"next_frame"`
	// AckedSeq is the sequence high-water mark this server incarnation
	// has settled; -1 when it has seen no push for the stream (always -1
	// right after a restart — dedup of replayed sends then falls back to
	// NextFrame).
	AckedSeq int64 `json:"acked_seq"`
	// Resumed reports whether the stream was restored from a checkpoint
	// rather than started empty.
	Resumed bool `json:"resumed"`
}

// PushRecord is one NDJSON line of a frame-push body: one frame's
// detections under one client-assigned sequence number.
type PushRecord struct {
	// Seq is the per-stream sequence number, strictly increasing across
	// every record the client ever sends for the stream.
	Seq int64 `json:"seq"`
	// Frame is the frame index; strictly increasing across records, and
	// every detection must carry the same index.
	Frame video.FrameIndex `json:"frame"`
	// Dets is the frame's detections; empty is a valid (empty) frame.
	Dets []video.BBox `json:"dets,omitempty"`
}

// PushResponse acknowledges a push batch. A response acknowledges state,
// not the request: a retried batch whose records were all duplicates
// still returns the current marks.
type PushResponse struct {
	// AckedSeq is the sequence high-water mark: every record with
	// Seq <= AckedSeq is settled (applied or discarded as duplicate) and
	// need never be resent to this incarnation.
	AckedSeq int64 `json:"acked_seq"`
	// NextFrame is the frame cursor after the batch.
	NextFrame int64 `json:"next_frame"`
	// DurableFrame is the cursor covered by the last stored checkpoint:
	// frames below it survive a daemon crash and may be dropped from the
	// client's resend buffer. -1 before any checkpoint is stored.
	DurableFrame int64 `json:"durable_frame"`
	// Duplicates counts records in this batch discarded by the dedup
	// rule — the observable proof that a resend did not double-apply.
	Duplicates int `json:"duplicates"`
}

// FinishResponse closes a stream: the final flush's cumulative result.
// Finish is idempotent; retrying it returns the same response.
type FinishResponse struct {
	Stream          string `json:"stream"`
	Fingerprint     string `json:"fingerprint"`
	Frames          int    `json:"frames"`
	Windows         int    `json:"windows"`
	DegradedWindows int    `json:"degraded_windows"`
}

// StreamStatus is one stream's row in a StatusResponse: the serve-layer
// snapshot plus the ingress dedup marks.
type StreamStatus struct {
	ID              string `json:"id"`
	State           string `json:"state"`
	Frames          int    `json:"frames"`
	Queued          int    `json:"queued"`
	Windows         int    `json:"windows"`
	DegradedWindows int    `json:"degraded_windows"`
	Restarts        int    `json:"restarts"`
	Quarantined     int    `json:"quarantined"`
	Breaker         string `json:"breaker,omitempty"`
	Err             string `json:"err,omitempty"`
	// AckedSeq and Duplicates are the ingress dedup marks: the sequence
	// high-water mark and the cumulative count of discarded records.
	AckedSeq   int64 `json:"acked_seq"`
	Duplicates int64 `json:"duplicates"`
}

// StatusResponse is the daemon-wide status document.
type StatusResponse struct {
	Draining bool           `json:"draining,omitempty"`
	Streams  []StreamStatus `json:"streams"`
}

// ErrorBody is the typed JSON error every non-2xx response carries.
type ErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	// RetryAfterMS hints when to retry (429/503); 0 means the client's
	// own backoff schedule applies.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// DefaultMaxLineBytes bounds one NDJSON push line unless the server
// configures otherwise: a frame of detections with appearance vectors
// comfortably fits, a runaway or hostile line does not.
const DefaultMaxLineBytes = 1 << 20

// DecodePushBatch reads an NDJSON push body with the repo's hardened
// decoder posture: bounded line length, per-line JSON errors carrying
// the line number, and protocol validation before anything reaches the
// serving layer — sequence numbers non-negative and strictly increasing,
// frame indices within [0, video.MaxFrameIndex] and strictly increasing,
// every detection finite, positively sized, and on its record's frame.
// Empty lines are skipped. The error for line N never hides how many
// lines were well-formed before it: decoded records up to the failure
// are returned alongside the error so callers can report a precise
// reject. Each line is parsed by the hand-written push codec, whose
// grammar DESIGN.md §13 gives.
func DecodePushBatch(r io.Reader, maxLine int) ([]PushRecord, error) {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	d := decoders.Get().(*pushDecoder)
	defer d.release()
	var (
		out      []PushRecord
		line     int
		prevSeq  int64 = -1
		havePrev bool
		prevFr   video.FrameIndex
	)
	for {
		raw, ok, err := d.readLine(r, maxLine)
		if err == errLineTooLong {
			return out, fmt.Errorf("ingress: push line %d: line exceeds %d bytes", line+1, maxLine)
		}
		if err != nil {
			return out, fmt.Errorf("ingress: push body: %w", err)
		}
		if !ok {
			return out, nil
		}
		line++
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		rec, err := d.record(raw)
		if err != nil {
			return out, fmt.Errorf("ingress: push line %d: %w", line, err)
		}
		if rec.Seq < 0 {
			return out, fmt.Errorf("ingress: push line %d: negative seq %d", line, rec.Seq)
		}
		if rec.Seq <= prevSeq {
			return out, fmt.Errorf("ingress: push line %d: seq %d not increasing (previous %d)", line, rec.Seq, prevSeq)
		}
		if rec.Frame < 0 || rec.Frame > video.MaxFrameIndex {
			return out, fmt.Errorf("ingress: push line %d: frame %d outside [0, %d]", line, rec.Frame, video.MaxFrameIndex)
		}
		if havePrev && rec.Frame <= prevFr {
			return out, fmt.Errorf("ingress: push line %d: frame %d not increasing (previous %d)", line, rec.Frame, prevFr)
		}
		for i, det := range rec.Dets {
			if err := det.Validate(); err != nil {
				return out, fmt.Errorf("ingress: push line %d det %d: %w", line, i, err)
			}
			if det.Frame != rec.Frame {
				return out, fmt.Errorf("ingress: push line %d det %d: frame %d does not match record frame %d", line, i, det.Frame, rec.Frame)
			}
		}
		prevSeq, prevFr, havePrev = rec.Seq, rec.Frame, true
		out = append(out, rec)
	}
}

// encodeBufs recycles EncodePushBatch's output buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodePushBatch writes records as NDJSON, the inverse of
// DecodePushBatch: byte for byte what a json.Encoder writes for each
// record, in one Write. On a record json.Encoder refuses (a non-finite
// float) it writes the records before it and returns json.Encoder's
// error.
func EncodePushBatch(w io.Writer, recs []PushRecord) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	b := (*bp)[:0]
	var err error
	for i := range recs {
		n := len(b)
		if b, err = appendPushRecord(b, &recs[i]); err != nil {
			b = b[:n]
			err = fmt.Errorf("ingress: encode push record %d: %w", i, err)
			break
		}
	}
	*bp = b
	if len(b) > 0 {
		if _, werr := w.Write(b); werr != nil && err == nil {
			err = fmt.Errorf("ingress: write push batch: %w", werr)
		}
	}
	return err
}
