package ingest

import (
	"fmt"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/histlog"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// HistoryConfig enables the log-structured on-disk history of a
// session: every committed window's view feed (track extensions plus
// merge events) is journaled to segmented, checksummed log files under
// Dir, the in-memory view is tiered so only tracks alive within the
// hot horizon keep their full per-frame state resident, checkpoints
// reference the sealed-log position the view is replayed from, and
// AsOf serves time-travel queries by replaying segments.
type HistoryConfig struct {
	// Dir is the history directory (one per session; the serving layer
	// derives a per-stream directory under its history root). Required.
	Dir string
	// HotHorizon is the tiering horizon in frames: canonical tracks
	// whose presence interval ended more than this many frames before
	// the newest committed window's end are evicted to cold summaries.
	// Zero selects 4×WindowLen; explicit values below 2×WindowLen are
	// rejected — merges reach back up to 1.5 windows, and a horizon that
	// forces the steady-state merge path through disk rehydration is a
	// misconfiguration, not a tuning choice.
	HotHorizon int
	// WindowsPerSegment is the log's auto-seal threshold (window entries
	// per sealed segment). Zero selects histlog.DefaultWindowsPerSegment.
	WindowsPerSegment int
	// CompactEvery, when positive, folds sealed segments into a single
	// base snapshot whenever this many sealed raw segments accumulate.
	// Compaction trades time-travel range for replay cost: frames before
	// the base become unreachable to AsOf (the retention boundary), and
	// restore replays only the short raw tail. Zero never compacts.
	CompactEvery int
}

// horizonFrames resolves the configured horizon against the window
// length.
func (hc *HistoryConfig) horizonFrames(windowLen int) int {
	if hc.HotHorizon > 0 {
		return hc.HotHorizon
	}
	return 4 * windowLen
}

// validate is HistoryConfig's part of Config.Validate.
func (hc *HistoryConfig) validate(windowLen int) error {
	if hc.Dir == "" {
		return fmt.Errorf("ingest: history enabled with empty directory")
	}
	if hc.HotHorizon != 0 && hc.HotHorizon < 2*windowLen {
		return fmt.Errorf("ingest: history hot horizon %d is below 2×WindowLen = %d", hc.HotHorizon, 2*windowLen)
	}
	if hc.WindowsPerSegment < 0 {
		return fmt.Errorf("ingest: history windows per segment must be >= 0, got %d", hc.WindowsPerSegment)
	}
	if hc.CompactEvery < 0 {
		return fmt.Errorf("ingest: history compaction interval must be >= 0, got %d", hc.CompactEvery)
	}
	return nil
}

// history is a session's live history machinery: the on-disk log, which
// journals the view feed and is the cold store of the session's tiered
// view, and the first I/O failure (the log and the in-memory state can
// no longer be guaranteed to agree, so checkpoints are refused until the
// session is rebuilt).
type history struct {
	cfg     HistoryConfig
	horizon int
	log     *histlog.Log
	scratch []histlog.Extend // per-window journal buffer, reused
	// compactions counts successful log compactions. A compaction moves
	// the retention boundary, so any checkpoint sealed before it can no
	// longer be restored (its log position was folded into the base);
	// the auto-checkpoint trigger compares this against the count at the
	// last seal to re-checkpoint promptly after every compaction.
	compactions int
	err         error
}

// fail records the first history failure; later ones are dropped.
func (h *history) fail(err error) {
	if h.err == nil {
		h.err = err
	}
}

// newHistory opens the session's history log, wiping any previous
// session's segments in the directory: a fresh session starts at
// window 0.
func newHistory(cfg Config) (*history, error) {
	hc := *cfg.History
	log, err := histlog.Open(hc.Dir, histlog.Options{WindowsPerSegment: hc.WindowsPerSegment})
	if err != nil {
		return nil, err
	}
	if err := log.Reset(); err != nil {
		return nil, err
	}
	return &history{
		cfg:     hc,
		horizon: hc.horizonFrames(cfg.WindowLen),
		log:     log,
	}, nil
}

// restoreHistory rebuilds a session's history machinery from a
// checkpoint reference: cut the on-disk log back to exactly the
// position the checkpoint covers, replay the view from segments fully
// hot, and attach the log to it as its cold store (Restore then evicts
// it at the horizon).
func restoreHistory(cfg Config, st *sessionState) (*history, *trackdb.LiveView, error) {
	ref := st.History
	hc := *cfg.History
	horizon := hc.horizonFrames(cfg.WindowLen)
	if ref.HotHorizon != horizon {
		return nil, nil, fmt.Errorf("ingest: restore: checkpoint history horizon %d, config resolves to %d", ref.HotHorizon, horizon)
	}
	if ref.Windows < 0 || ref.Seq < 0 {
		return nil, nil, fmt.Errorf("ingest: restore: negative history reference (windows %d, seq %d)", ref.Windows, ref.Seq)
	}
	if ref.Windows != st.NextWindow {
		return nil, nil, fmt.Errorf("ingest: restore: history covers %d windows, session committed %d", ref.Windows, st.NextWindow)
	}
	if want := st.Merger.EventBase + len(st.Merger.Events); ref.Seq != want {
		return nil, nil, fmt.Errorf("ingest: restore: history seq %d, merger log ends at %d", ref.Seq, want)
	}
	log, err := histlog.Open(hc.Dir, histlog.Options{WindowsPerSegment: hc.WindowsPerSegment})
	if err != nil {
		return nil, nil, err
	}
	if err := log.TruncateTo(ref.Windows, ref.Seq); err != nil {
		return nil, nil, fmt.Errorf("ingest: restore: %w", err)
	}
	view, err := log.ReplayView(-1)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: restore: %w", err)
	}
	if view.Seq() != ref.Seq {
		return nil, nil, fmt.Errorf("ingest: restore: segment replay ended at seq %d, checkpoint references %d", view.Seq(), ref.Seq)
	}
	view.AttachColdStore(log)
	return &history{cfg: hc, horizon: horizon, log: log}, view, nil
}

// journal appends one view extension to the window's journal entry.
// The journal is the durable source of truth: the append is
// unconditional, whatever happens to the in-memory view.
func (h *history) journal(id video.TrackID, frame video.FrameIndex, class video.ClassID, cx, cy float64) {
	h.scratch = append(h.scratch, histlog.Extend{Track: id, Frame: frame, CX: cx, CY: cy, Class: class})
}

// commitWindow finishes one window's history work: journal the window
// entry (extensions collected by journal plus the window's merge
// events), evict hot tracks of view that aged out of the horizon, trim
// the in-memory merger log to the sealed prefix, and fold segments when
// the compaction policy fires. Called after the window's events were
// applied to the view and its deltas drained.
func (h *history) commitWindow(view *trackdb.LiveView, m *core.Merger, w video.Window, events []core.MergeEvent) {
	entry := histlog.WindowEntry{Window: w, Events: events}
	if len(h.scratch) > 0 {
		entry.Extends = append([]histlog.Extend(nil), h.scratch...)
		h.scratch = h.scratch[:0]
	}
	if err := h.log.AppendWindow(entry); err != nil {
		h.fail(err)
		return
	}
	view.EvictBefore(w.End + 1 - video.FrameIndex(h.horizon))
	m.TrimEvents(h.log.SealedSeq())
	if h.cfg.CompactEvery > 0 && h.log.SealedRawSegments() >= h.cfg.CompactEvery {
		if err := h.log.Compact(); err != nil {
			h.fail(err)
		} else {
			h.compactions++
		}
	}
}

// HistoryErr returns the first history-log failure (journal append,
// seal, compaction, or cold-store paging), or nil. Like CheckpointErr,
// a history failure does not stop the stream, but Checkpoint refuses
// to run until the session is rebuilt — the on-disk log and the
// in-memory state can no longer be guaranteed to agree.
func (in *Ingestor) HistoryErr() error {
	if in.hist == nil {
		return nil
	}
	return in.hist.err
}

// HistoryStats reports the view's bounded-memory accounting:
// hot/cold track counts, resident cell count, and tiering traffic.
// Zero values when the session has no history.
func (in *Ingestor) HistoryStats() (hotTracks, coldTracks, hotCells int, tier trackdb.TierStats) {
	if in.hist == nil {
		return 0, 0, 0, trackdb.TierStats{}
	}
	return in.view.HotTracks(), in.view.ColdTracks(), in.view.HotCells(), in.view.Stats()
}

// AsOf reconstructs the merged-track view at the time-travel cut "all
// windows committed by frame": the nearest materialised snapshot plus
// segment replay, exactly equal to the live view (and therefore to the
// batch answer over MergedTracks) at the moment that window closed. It
// returns the reconstructed view and the cut's actual frame — the last
// covered window's End, -1 when no window had closed by frame. Frames
// before the retention boundary of a compacted log are refused, as is
// any call on a session without history or with a failed history log.
func (in *Ingestor) AsOf(frame video.FrameIndex) (*trackdb.LiveView, video.FrameIndex, error) {
	if in.hist == nil {
		return nil, 0, fmt.Errorf("ingest: session has no history log")
	}
	if in.hist.err != nil {
		return nil, 0, fmt.Errorf("ingest: history log failed earlier: %w", in.hist.err)
	}
	return in.hist.log.AsOf(frame)
}
