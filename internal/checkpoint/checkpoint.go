// Package checkpoint implements the durability format for streaming
// ingestion sessions: a versioned, checksummed JSON envelope (Seal/Open)
// and the SessionState payload that captures everything an interrupted
// ingest.Ingestor needs to resume deterministically — the unretired
// tracker hypotheses with their Kalman filters and appearance EMAs, the
// ledger of retired tracks, the identity map, the live part of the ReID
// feature cache and the work counters, device resilience state (circuit
// breaker, jitter RNG, fault-injection cursor), the virtual clock, the
// quarantine ledger, and the frame/window cursors.
//
// The format guarantee is all-or-nothing: Open either yields the exact
// payload Seal wrote or a descriptive error. A truncated file fails the
// envelope's layout check or the checksum; a bit flip anywhere in the
// payload fails the SHA-256 checksum; an envelope from a future (or unknown) format version is
// refused before the payload is looked at. Restore code therefore never
// sees — and can never apply — a partially valid session.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// Format is the envelope's format discriminator.
const Format = "tmerge/checkpoint"

// Version is the current payload schema version. Readers refuse
// envelopes with a different version: the schema carries Kalman filter
// internals and RNG states whose meaning is pinned to the code that
// wrote them, so silent cross-version reads would break the replay
// guarantee in ways no checksum can catch.
//
// Version 2 added the streaming-query state: the merger's ordered
// merge-event log inside MergerState, per-window Events and Queries on
// WindowRecord, and the live-view plus subscription snapshots
// (SessionState.View, SessionState.Subscriptions) that let a restored
// session resume incremental query processing without recomputation.
//
// Version 3 added the log-structured history reference: sessions with an
// on-disk history log carry SessionState.History (a manifest position)
// instead of embedding the full merge-event log and view state, the
// merger snapshot gained MergerState.EventBase (the log is trimmed once
// segments are sealed), and restore replays the view from segments.
//
// Version 4 bounded the payload by the session's hot state: finished
// tracker hypotheses no future window can read leave StreamState.Finished
// for SessionState.Retired (boxes without Kalman state, appearance EMA
// or Obs), and the oracle cache carries only the entries a future pair
// can still name.
const Version = 4

// The on-disk envelope is one JSON object with exactly this layout and
// no whitespace:
//
//	{"format":<string>,"version":<int>,"checksum":"<hex SHA-256>","payload":<payload>}
//
// — the bytes json.Marshal writes for a struct of those four fields in
// that order, with the payload held as a json.RawMessage. Seal writes
// the header by hand around the marshalled payload instead of
// marshalling that struct, which would re-scan (compact) the whole
// payload a second time; Open parses the fixed header by hand, so the
// payload is scanned once, by the json.Unmarshal that decodes it. The
// checksum covers exactly the payload bytes. Any other layout is
// refused as malformed.

const (
	headFormat   = `{"format":`
	headVersion  = `,"version":`
	headChecksum = `,"checksum":"`
	headPayload  = `","payload":`
)

// Seal marshals payload and wraps it in a versioned, checksummed
// envelope. The result is self-contained: Open needs nothing but the
// bytes.
func Seal(payload any) ([]byte, error) {
	return SealAs(Format, Version, payload)
}

// SealAs is Seal for other on-disk artefacts that reuse the envelope
// idiom (the history-log manifest, for one) under their own format
// discriminator and version. The result is self-contained: OpenAs needs
// nothing but the bytes.
func SealAs(format string, version int, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: seal %s: %w", format, err)
	}
	quoted, err := json.Marshal(format)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: seal %s: %w", format, err)
	}
	sum := sha256.Sum256(raw)
	out := make([]byte, 0, len(headFormat)+len(quoted)+len(headVersion)+20+
		len(headChecksum)+2*sha256.Size+len(headPayload)+len(raw)+1)
	out = append(out, headFormat...)
	out = append(out, quoted...)
	out = append(out, headVersion...)
	out = strconv.AppendInt(out, int64(version), 10)
	out = append(out, headChecksum...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, headPayload...)
	out = append(out, raw...)
	out = append(out, '}')
	return out, nil
}

// Open verifies the envelope around data — format, version, checksum —
// and unmarshals the payload into out. Any failure returns a descriptive
// error with out untouched by meaningful data; callers must not use out
// unless Open returns nil.
func Open(data []byte, out any) error {
	return OpenAs(data, Format, Version, out)
}

// OpenAs is Open for envelopes sealed by SealAs under a different format
// discriminator and version. The all-or-nothing guarantee is identical.
func OpenAs(data []byte, format string, version int, out any) error {
	env, err := parseEnvelope(data)
	if err != nil {
		return fmt.Errorf("checkpoint: open: malformed envelope (truncated or not a checkpoint): %w", err)
	}
	if env.format != format {
		return fmt.Errorf("checkpoint: open: format %q, want %q", env.format, format)
	}
	if env.version != version {
		return fmt.Errorf("checkpoint: open: unsupported version %d (this build reads version %d)", env.version, version)
	}
	sum := sha256.Sum256(env.payload)
	if got := hex.EncodeToString(sum[:]); got != string(env.checksum) {
		return fmt.Errorf("checkpoint: open: payload checksum mismatch (got %s, recorded %s): checkpoint is corrupt", got, env.checksum)
	}
	if err := json.Unmarshal(env.payload, out); err != nil {
		return fmt.Errorf("checkpoint: open: payload does not decode: %w", err)
	}
	return nil
}

// parsedEnvelope is the header of an envelope plus its payload bytes,
// which alias the input.
type parsedEnvelope struct {
	format   string
	version  int
	checksum []byte
	payload  []byte
}

// parseEnvelope splits data into the fixed header fields and the
// payload without scanning the payload. It checks only the layout; the
// caller verifies format, version and checksum.
func parseEnvelope(data []byte) (parsedEnvelope, error) {
	var env parsedEnvelope
	rest, ok := bytes.CutPrefix(data, []byte(headFormat))
	if !ok {
		return env, errors.New("no format field")
	}
	// The format is a JSON string: find its closing quote, skipping
	// escaped characters, let the decoder unescape it, and accept only
	// the quoting json.Marshal writes (no "\/" for "/", say).
	end := -1
	if len(rest) > 0 && rest[0] == '"' {
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
			} else if rest[i] == '"' {
				end = i + 1
				break
			}
		}
	}
	if end < 0 {
		return env, errors.New("format is not a string")
	}
	if err := json.Unmarshal(rest[:end], &env.format); err != nil {
		return env, fmt.Errorf("format: %w", err)
	}
	if quoted, _ := json.Marshal(env.format); !bytes.Equal(quoted, rest[:end]) {
		return env, fmt.Errorf("format %s is not quoted as %s", rest[:end], quoted)
	}
	if rest, ok = bytes.CutPrefix(rest[end:], []byte(headVersion)); !ok {
		return env, errors.New("no version field")
	}
	n := 0
	if len(rest) > 0 && rest[0] == '-' {
		n++
	}
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	v, err := strconv.Atoi(string(rest[:n]))
	// Only the canonical spelling json.Marshal writes: no leading
	// zeros, no "-0", no exponent.
	if err != nil || strconv.Itoa(v) != string(rest[:n]) {
		return env, fmt.Errorf("version %q is not an integer", rest[:n])
	}
	env.version = v
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(headChecksum)); !ok {
		return env, errors.New("no checksum field")
	}
	if len(rest) < 2*sha256.Size {
		return env, errors.New("checksum too short")
	}
	env.checksum, rest = rest[:2*sha256.Size], rest[2*sha256.Size:]
	if rest, ok = bytes.CutPrefix(rest, []byte(headPayload)); !ok {
		return env, errors.New("no payload field")
	}
	if len(rest) == 0 || rest[len(rest)-1] != '}' {
		return env, errors.New("unterminated envelope")
	}
	env.payload = rest[:len(rest)-1]
	return env, nil
}

// HistoryRef is a checkpoint's durable position in a session's
// log-structured history (internal/histlog): everything the restore
// path needs to cut the on-disk log back to exactly the state this
// checkpoint covers and replay the view from segments instead of an
// embedded snapshot. It deliberately holds no directory path — the
// history location is pipeline configuration, like the device chain,
// and a checkpoint must restore on a machine with a different root.
type HistoryRef struct {
	// Windows is the number of committed windows the log covers (the
	// next window entry appended will be window index Windows).
	Windows int `json:"windows"`
	// Seq is the view/merger event cursor after the last covered window.
	Seq int `json:"seq"`
	// HotHorizon echoes the session's tiering horizon in frames, so a
	// restore under a different horizon fails loudly instead of
	// rebuilding a differently tiered view.
	HotHorizon int `json:"hot_horizon"`
}

// WindowRecord mirrors ingest.WindowResult in a package that the ingest
// package can depend on without a cycle.
type WindowRecord struct {
	Window      video.Window    `json:"window"`
	Pairs       int             `json:"pairs"`
	Selected    []video.PairKey `json:"selected,omitempty"`
	Merged      []video.PairKey `json:"merged,omitempty"`
	Degraded    bool            `json:"degraded,omitempty"`
	Quarantined int             `json:"quarantined,omitempty"`
	// Events is the window's slice of the ordered merge-event log and
	// Queries the per-subscription incremental output, carried so the
	// restored session's Results are bit-identical to the original's.
	Events  []core.MergeEvent `json:"events,omitempty"`
	Queries []QueryRecord     `json:"queries,omitempty"`
}

// QueryRecord is one subscription's delta output for one window.
type QueryRecord struct {
	Name   string        `json:"name"`
	Deltas []query.Delta `json:"deltas,omitempty"`
}

// SubscriptionState is one subscribed incremental operator's
// checkpointed state, keyed by the subscription name the session
// registered it under. On restore the session parks these until
// Subscribe is called again with a matching name, which adopts the
// state instead of bootstrapping from scratch.
type SubscriptionState struct {
	Name string              `json:"name"`
	Op   query.OperatorState `json:"op"`
}

// RejectedRecord is one quarantined detection in the dead-letter buffer.
type RejectedRecord struct {
	// Frame is the stream frame at which the detection was rejected (for
	// frame-level rejects, the offending frame index itself).
	Frame  video.FrameIndex `json:"frame"`
	Det    video.BBox       `json:"det"`
	Reason string           `json:"reason"`
}

// QuarantineState is the serialisable quarantine ledger: per-reason
// counters plus the capped dead-letter buffer.
type QuarantineState struct {
	Cap           int              `json:"cap"`
	TotalRejected int              `json:"total_rejected"`
	Dropped       int              `json:"dropped"`
	Counts        map[string]int   `json:"counts,omitempty"`
	Rejected      []RejectedRecord `json:"rejected,omitempty"`
}

// SessionState is the full checkpoint payload of one streaming ingestion
// session. The config/model echoes exist so Restore can verify the
// caller reassembled an equivalent pipeline (same windowing, same
// algorithm, same tracker preset, same ReID model) before any state is
// applied — restoring against a different pipeline would not fail, it
// would silently diverge, which is worse.
type SessionState struct {
	// Configuration echoes.
	WindowLen  int     `json:"window_len"`
	K          float64 `json:"k"`
	Algorithm  string  `json:"algorithm"`
	ModelInDim int     `json:"model_in_dim"`
	ModelScale float64 `json:"model_scale"`

	// Cursors.
	NextFrame  video.FrameIndex `json:"next_frame"`
	NextWindow int              `json:"next_window"`

	// Component states. Stream holds only the unretired hypotheses;
	// Retired is the session's ledger of retired tracks, whose boxes
	// carry no Obs.
	Stream  track.StreamState `json:"stream"`
	Retired []*video.Track    `json:"retired,omitempty"`
	PrevTc  []*video.Track    `json:"prev_tc,omitempty"`
	Merger  core.MergerState  `json:"merger"`
	Oracle  reid.OracleState  `json:"oracle"`
	Results []WindowRecord    `json:"results,omitempty"`

	// QuarantineMark is the TotalRejected reading at the last window
	// close, from which per-window quarantine deltas continue.
	Quarantine     QuarantineState `json:"quarantine"`
	QuarantineMark int             `json:"quarantine_mark"`

	// Streaming-query state, present only when the session had live
	// subscriptions. View is the materialised merged-track view as of the
	// last committed window; Subscriptions carries each registered
	// operator's state (registration order first, then any still-parked
	// restored states sorted by name).
	View          *trackdb.ViewState  `json:"view,omitempty"`
	Subscriptions []SubscriptionState `json:"subscriptions,omitempty"`

	// History, when present, marks a session with an on-disk
	// log-structured history: the checkpoint references the sealed
	// segment manifest position instead of embedding the view (View is
	// omitted and MergerState carries only the untrimmed event suffix);
	// restore truncates the log to this position and replays the view
	// from segments.
	History *HistoryRef `json:"history,omitempty"`

	// Device chain state. ClockNS is the shared virtual clock; the
	// resilient and fault-injection snapshots are present only when the
	// session's oracle ran on the corresponding wrappers.
	ClockNS   int64                  `json:"clock_ns"`
	Resilient *device.ResilientState `json:"resilient,omitempty"`
	Flaky     *fault.FlakyState      `json:"flaky,omitempty"`

	// CreatedAtFrame duplicates NextFrame for human inspection of
	// checkpoint files (the cursor names are internal).
	CreatedAtFrame video.FrameIndex `json:"created_at_frame"`
}

// Elapsed returns the snapshotted virtual clock reading.
func (s *SessionState) Elapsed() time.Duration { return time.Duration(s.ClockNS) }
