// Package serve is the multi-stream serving layer: a StreamManager that
// owns N per-stream ingestion sessions sharded across a bounded shared
// worker pool, the substrate a tmerged deployment multiplexes hundreds
// of camera streams over (see DESIGN.md §12).
//
// The design splits the shared from the isolated:
//
//   - Shared: the worker pool and its fair (round-robin) ready queue.
//     A stream is scheduled for a bounded turn of frames, then requeued
//     behind every other waiting stream, so one hot stream cannot starve
//     the rest.
//   - Isolated: everything determinism-bearing. Each stream owns its
//     tracker engine, ReID oracle, and device chain (fault injector,
//     resilient wrapper, virtual clock), built by its own
//     PipelineFactory. Streams therefore never interleave on a shared
//     clock or fault schedule, which is what makes a stream's result
//     bit-identical to its single-stream sequential run regardless of
//     pool size — the property the chaos test pins.
//
// Admission control bounds the fleet: registration accounts each stream
// a window budget derived from its queue capacity, and over-budget
// registrations are parked (Pending) until capacity frees. Backpressure bounds each stream: Push either blocks
// for queue room or sheds with ErrOverloaded. Supervision keeps the
// fleet healthy: a panicked stream is quarantined and restarted from its
// latest periodic checkpoint, with the frames pushed since that
// checkpoint replayed from a per-stream replay buffer — bit-identical
// resumption, proven by the fingerprint comparison in the chaos test.
package serve

import (
	"errors"
	"path/filepath"
	"time"

	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
)

// Typed serving-layer errors; match with errors.Is.
var (
	// ErrOverloaded reports a shed Push: the stream's bounded frame
	// queue is full and the manager is configured to shed rather than
	// block.
	ErrOverloaded = errors.New("serve: stream frame queue full")
	// ErrNotAdmitted reports an operation on a stream still parked in the
	// admission queue.
	ErrNotAdmitted = errors.New("serve: stream awaiting admission")
	// ErrStopped reports an operation against a shut-down manager.
	ErrStopped = errors.New("serve: manager shut down")
	// ErrDraining reports a Push or Register against a manager that has
	// begun a Drain: intake is closed so queued frames can flush to a
	// final checkpoint, but in-flight work is still completing.
	ErrDraining = errors.New("serve: manager draining")
	// ErrStreamClosed reports a Push or Finish against a stream whose
	// input was already closed.
	ErrStreamClosed = errors.New("serve: stream input closed")
	// ErrUnknownStream reports an operation naming no registered stream.
	ErrUnknownStream = errors.New("serve: unknown stream")
	// ErrDuplicateStream reports a registration reusing a live stream ID.
	ErrDuplicateStream = errors.New("serve: duplicate stream id")
)

// Health is a stream's supervision state.
type Health int

// Stream health states, in escalation order. Healthy and Degraded
// streams are schedulable; Pending streams await admission; Quarantined
// streams await (or failed) recovery; Recovering streams are being
// restored from checkpoint by the supervisor; Stopped streams finished.
const (
	Pending Health = iota
	Healthy
	Degraded
	Quarantined
	Recovering
	Stopped
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Pending:
		return "pending"
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Recovering:
		return "recovering"
	case Stopped:
		return "stopped"
	}
	return "unknown"
}

// PipelineFactory builds one stream's fully isolated processing
// pipeline: a fresh tracker engine and a fresh oracle with its own
// device chain (and virtual clock). The manager calls it at admission
// and again at every crash recovery, so it must return an equivalent,
// independently seeded pipeline each time — sharing a device, injector,
// or clock across calls (or across streams) breaks the bit-identical
// recovery and single-stream-equivalence guarantees.
type PipelineFactory func() (*track.Engine, *reid.Oracle)

// StreamSpec registers one stream.
type StreamSpec struct {
	// ID names the stream; it must be unique among live streams.
	ID string
	// Ingest configures the stream's ingestion session. The manager
	// installs its own CheckpointSink (chaining to any sink set here), so
	// setting AutoCheckpointEvery is how a stream opts into periodic
	// checkpoints — without them, crash recovery replays the stream's
	// entire history from the replay buffer, which the manager then
	// cannot truncate.
	Ingest ingest.Config
	// Pipeline builds the stream's isolated engine/oracle/device chain.
	Pipeline PipelineFactory
	// QueueCap bounds this stream's frame queue; 0 takes the manager's
	// DefaultQueueCap.
	QueueCap int
	// CrashAtFrame, when positive, injects exactly one supervised crash:
	// the first time a worker is about to process a frame at or past this
	// index, the turn panics before the frame reaches the ingestor. The
	// supervisor quarantines and recovers the stream; the frame itself is
	// replayed, so it is processed exactly once. For chaos testing.
	CrashAtFrame int
	// Resume, when non-empty, registers the stream mid-history: the
	// session is rebuilt from these checkpoint bytes (ingest.Restore
	// against a fresh Pipeline() chain) instead of starting empty, and
	// the first accepted frame continues from the restored cursor. This
	// is how a restarted daemon re-admits streams drained to checkpoint
	// by a previous incarnation (see Manager.Drain).
	Resume []byte
}

// HistoryRoot enables per-stream log-structured histories: every
// admitted stream whose spec does not already carry its own
// ingest.HistoryConfig journals its committed windows to a segmented
// on-disk log under Dir/<stream-id>, tiers its in-memory view at the
// hot horizon, and serves time-travel cuts through Manager.AsOf. The
// manager's drain checkpoint seals each stream's active segment (the
// seal is part of ingest.Checkpoint), so the returned resume bytes and
// the on-disk logs always agree; a successor manager configured with
// the same root restores each stream from its own directory.
type HistoryRoot struct {
	// Dir is the root directory; each stream's log lives in Dir/<id>.
	// Stream IDs therefore double as directory names — Register rejects
	// IDs containing path separators or equal to "." / "..".
	Dir string
	// HotHorizon, WindowsPerSegment, and CompactEvery configure every
	// derived per-stream history; see ingest.HistoryConfig for the
	// semantics and zero-value defaults.
	HotHorizon        int
	WindowsPerSegment int
	CompactEvery      int
}

// config returns the per-stream ingest history configuration rooted at
// the stream's own directory.
func (h *HistoryRoot) config(id string) *ingest.HistoryConfig {
	return &ingest.HistoryConfig{
		Dir:               filepath.Join(h.Dir, id),
		HotHorizon:        h.HotHorizon,
		WindowsPerSegment: h.WindowsPerSegment,
		CompactEvery:      h.CompactEvery,
	}
}

// Config parameterises a Manager.
type Config struct {
	// Workers is the shared worker pool size; 0 defaults to 4. Streams
	// are processed one turn at a time, each turn by one worker; a
	// stream is never processed by two workers concurrently.
	Workers int
	// WindowBudget caps the aggregate in-flight window capacity across
	// admitted streams (each stream costs ceil(QueueCap / (WindowLen/2))
	// windows, at least 1); over-budget registrations are parked
	// Pending until capacity frees. 0 disables admission control.
	WindowBudget int
	// DefaultQueueCap bounds each stream's frame queue when its spec
	// does not choose one; 0 defaults to 64.
	DefaultQueueCap int
	// TurnFrames bounds how many queued frames one scheduling turn may
	// feed a stream before it is requeued behind the other ready
	// streams; 0 defaults to 16. Smaller values are fairer, larger
	// values amortise scheduling overhead.
	TurnFrames int
	// Shed makes Push return ErrOverloaded when the stream queue is full
	// instead of blocking for room.
	Shed bool
	// Now, when non-nil, reads wall time for per-window latency
	// observation. It must be injected by the caller — cmd/benchrunner
	// is on the determinism allowlist, this package is not. Nil disables
	// latency measurement (OnWindow sees zero latency).
	Now func() time.Time
	// OnWindow, when non-nil, observes every window a worker closes: the
	// stream, the window result, and the wall latency of the push that
	// closed it (zero without Now). It is called from worker goroutines
	// concurrently and must be safe for concurrent use. Windows re-closed
	// while replaying after a crash are not re-observed.
	OnWindow func(stream string, res ingest.WindowResult, latency time.Duration)
	// History, when non-nil, gives every admitted stream a log-structured
	// on-disk history under History.Dir/<stream-id> (specs carrying their
	// own Ingest.History keep it untouched). See HistoryRoot.
	History *HistoryRoot
}

// withDefaults fills zero-valued fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DefaultQueueCap <= 0 {
		c.DefaultQueueCap = 64
	}
	if c.TurnFrames <= 0 {
		c.TurnFrames = 16
	}
	return c
}

// StreamStatus is one stream's health snapshot, the unit of the
// Manager.Snapshot API consumed by tmerged's status output. Every field
// is a detached copy safe to retain.
type StreamStatus struct {
	ID    string
	State Health
	// Frames is how many frames the stream cursor has passed.
	Frames int
	// Queued is how many pushed frames await processing: the stream
	// queue plus the frames a running turn has dequeued but not yet fed
	// to the ingestor. Zero means every pushed frame is in Frames.
	Queued int
	// Windows counts committed windows; DegradedWindows counts those
	// selected on the spatial prior during device unavailability.
	Windows         int
	DegradedWindows int
	// Restarts counts crash recoveries the supervisor performed.
	Restarts int
	// Quarantined is the stream's all-time rejected-detection count
	// (the ingest dead-letter ledger, not the stream's own quarantine
	// state).
	Quarantined int
	// Breaker is the stream's resilient-device breaker state ("closed",
	// "open", "half-open"), or "" when the stream has no resilient
	// device or no live session.
	Breaker string
	// HistoryHot and HistoryCold are the stream's tiered-view track
	// counts (resident vs summarised), refreshed at the end of every
	// turn that commits a window; both zero for streams without history.
	HistoryHot  int
	HistoryCold int
	// HistoryErr is the stream's first history-log failure, "" when none
	// (or no history). A failed log keeps the stream flowing but refuses
	// further checkpoints, so a drain cannot cover it.
	HistoryErr string
	// Err is the most recent crash or recovery failure, "" when none.
	Err string
}
