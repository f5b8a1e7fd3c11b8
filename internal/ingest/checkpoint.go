package ingest

import (
	"fmt"
	"sort"
	"time"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// sessionState is the checkpoint payload of one streaming ingestion
// session, sealed in the checkpoint envelope (checkpoint.Format,
// checkpoint.Version). Only this package writes and reads it. It holds
// each fact of the session once; what can be derived from those facts —
// the merged-track view, the previous window's clipped tracks — is
// rebuilt at restore. The config/model echoes exist so Restore can
// verify the caller reassembled an equivalent pipeline (same windowing,
// same algorithm, same tracker preset, same ReID model) before any state
// is applied: restoring against a different pipeline would not fail, it
// would silently diverge, which is worse.
//
// Version history (checkpoint.Version):
//
//   - 2 added the streaming-query state: the merger's ordered merge-event
//     log, per-window Events and Queries, and the live-view and
//     subscription snapshots.
//   - 3 added the history reference: sessions with an on-disk history log
//     reference a manifest position instead of embedding the event log
//     and the view, the merger snapshot gained an event base (the log is
//     trimmed once segments are sealed), and restore replays the view
//     from segments.
//   - 4 bounded the payload by the session's hot state: finished
//     hypotheses no future window can read moved to Retired (boxes
//     without Kalman state, appearance EMA or Obs), and the oracle cache
//     carries only entries a future pair can still name.
//   - 5 stores each fact once: no embedded view (a plain session's view is
//     rebuilt from Retired, Stream up to the Fed cursors, and the merger
//     log), PrevTc as track IDs, the view feed cursors in Fed, and no
//     created_at_frame copy of NextFrame. Retired boxes are ledgerBoxes
//     instead of JSON video.BBoxes.
type sessionState struct {
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
	// Retired is the session's ledger of retired tracks. PrevTc names, in order, the tracks of the last
	// committed window's Tc; each is a live stream track, clipped to that
	// window at restore.
	Stream  track.StreamState `json:"stream"`
	Retired []ledgerTrack     `json:"retired,omitempty"`
	PrevTc  []video.TrackID   `json:"prev_tc,omitempty"`
	Merger  core.MergerState  `json:"merger"`
	Oracle  reid.OracleState  `json:"oracle"`
	Results []WindowResult    `json:"results,omitempty"`

	// QuarantineMark is the TotalRejected reading at the last window
	// close, from which per-window quarantine deltas continue.
	Quarantine     quarantineState `json:"quarantine"`
	QuarantineMark int             `json:"quarantine_mark"`

	// Streaming-query state. Fed is the view's feed cursor per live track
	// (how many of its boxes the view holds), null when the session has no
	// view. Subscriptions carries each registered operator's state
	// (registration order first, then any still-parked restored states
	// sorted by name).
	Fed           map[video.TrackID]int `json:"fed"`
	Subscriptions []subscriptionState   `json:"subscriptions,omitempty"`

	// History, present for sessions with an on-disk log-structured
	// history, is the sealed manifest position the view is replayed from;
	// Merger then carries only the untrimmed event suffix.
	History *historyRef `json:"history,omitempty"`

	// Device chain state. ClockNS is the shared virtual clock; the
	// resilient and fault-injection snapshots are present only when the
	// session's oracle ran on the corresponding wrappers.
	ClockNS   int64                  `json:"clock_ns"`
	Resilient *device.ResilientState `json:"resilient,omitempty"`
	Flaky     *fault.FlakyState      `json:"flaky,omitempty"`
}

// ledgerTrack is a retired track as the checkpoint stores it.
type ledgerTrack struct {
	ID    video.TrackID `json:"id"`
	Boxes []ledgerBox   `json:"boxes"`
}

// ledgerBox is a retired box as the checkpoint stores it: what the
// ledger keeps of a box under one-letter keys, with the rect as an
// array. The ledger grows with the stream, and a JSON video.BBox spends
// about half its bytes on field names and "Obs":null.
type ledgerBox struct {
	ID    video.BBoxID     `json:"i"`
	Frame video.FrameIndex `json:"f"`
	Rect  [4]float64       `json:"r"`
	Class video.ClassID    `json:"c,omitempty"`
	GT    video.ObjectID   `json:"g"`
}

// toLedger encodes the retired tracks for a checkpoint.
func toLedger(ts []*video.Track) []ledgerTrack {
	out := make([]ledgerTrack, len(ts))
	for i, t := range ts {
		out[i] = ledgerTrack{ID: t.ID, Boxes: make([]ledgerBox, len(t.Boxes))}
		for j, b := range t.Boxes {
			r := b.Rect
			out[i].Boxes[j] = ledgerBox{ID: b.ID, Frame: b.Frame, Rect: [4]float64{r.X, r.Y, r.W, r.H}, Class: b.Class, GT: b.GTObject}
		}
	}
	return out
}

// fromLedger decodes checkpointed retired tracks; their boxes carry no
// Obs.
func fromLedger(ls []ledgerTrack) []*video.Track {
	out := make([]*video.Track, len(ls))
	for i, l := range ls {
		out[i] = &video.Track{ID: l.ID, Boxes: make([]video.BBox, len(l.Boxes))}
		for j, b := range l.Boxes {
			r := geom.Rect{X: b.Rect[0], Y: b.Rect[1], W: b.Rect[2], H: b.Rect[3]}
			out[i].Boxes[j] = video.BBox{ID: b.ID, Frame: b.Frame, Rect: r, Class: b.Class, GTObject: b.GT}
		}
	}
	return out
}

// historyRef is a checkpoint's durable position in a session's
// log-structured history (internal/histlog): everything the restore
// path needs to cut the on-disk log back to exactly the state the
// checkpoint covers and replay the view from segments. It deliberately
// holds no directory path — the history location is pipeline
// configuration, like the device chain, and a checkpoint must restore on
// a machine with a different root.
type historyRef struct {
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

// subscriptionState is one subscribed incremental operator's
// checkpointed state, keyed by the subscription name the session
// registered it under. On restore the session parks these until
// Subscribe is called again with a matching name, which adopts the
// state instead of bootstrapping from scratch.
type subscriptionState struct {
	Name string              `json:"name"`
	Op   query.OperatorState `json:"op"`
}

// quarantineState is the serialisable quarantine ledger: per-reason
// counters plus the capped dead-letter buffer.
type quarantineState struct {
	Cap           int                 `json:"cap"`
	TotalRejected int                 `json:"total_rejected"`
	Dropped       int                 `json:"dropped"`
	Counts        map[string]int      `json:"counts,omitempty"`
	Rejected      []RejectedDetection `json:"rejected,omitempty"`
}

// Checkpoint seals the session's mutable state — tracker hypotheses,
// retired-track ledger, identity map, ReID cache and counters, device
// resilience state, quarantine ledger, window results, operator states,
// and cursors — into a self-contained, versioned, checksummed byte
// slice. A session restored from it and fed the same subsequent frames
// produces bit-identical window results and merged tracks to the
// uninterrupted session. The view is not part of it: Restore rebuilds
// it.
//
// Call it between pushes only: the snapshot is taken at a frame
// boundary, which is the unit of replay.
//
// History sessions first seal the active history segment — durability
// of the journal is ordered before the checkpoint that references it —
// then trim the in-memory merger log to the sealed prefix and record
// the manifest position. A session whose history log has already failed
// refuses to checkpoint: the reference could point at state the log
// does not actually hold.
func (in *Ingestor) Checkpoint() ([]byte, error) {
	if in.hist != nil {
		if in.hist.err != nil {
			return nil, fmt.Errorf("ingest: checkpoint refused, history log failed: %w", in.hist.err)
		}
		if err := in.hist.log.Seal(); err != nil {
			return nil, err
		}
		in.merger.TrimEvents(in.hist.log.SealedSeq())
		in.ckptCompactions = in.hist.compactions
	}
	st := sessionState{
		WindowLen:  in.cfg.WindowLen,
		K:          in.cfg.K,
		Algorithm:  in.cfg.Algorithm.Name(),
		ModelInDim: in.oracle.Model().InDim,
		ModelScale: in.oracle.Model().Scale(),

		NextFrame:  in.nextFrame,
		NextWindow: in.nextWindow,

		Stream:  in.stream.State(),
		Retired: toLedger(in.retired),
		Merger:  in.merger.State(),
		Oracle:  in.oracle.State(),
		Results: in.results,

		Quarantine:     in.quar.state(),
		QuarantineMark: in.quarMark,

		Fed: in.fed,
	}
	for _, t := range in.prevTc {
		st.PrevTc = append(st.PrevTc, t.ID)
	}
	if in.hist != nil {
		st.History = &historyRef{
			Windows:    in.hist.log.Windows(),
			Seq:        in.hist.log.Seq(),
			HotHorizon: in.hist.horizon,
		}
	}
	// Registered subscriptions first (registration order), then any
	// still-unclaimed restored states, sorted by name.
	for _, s := range in.subs {
		st.Subscriptions = append(st.Subscriptions, subscriptionState{Name: s.name, Op: s.op.State()})
	}
	names := make([]string, 0, len(in.pendingOps))
	for n := range in.pendingOps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st.Subscriptions = append(st.Subscriptions, subscriptionState{Name: n, Op: in.pendingOps[n]})
	}

	// Walk the device chain from the oracle outwards, snapshotting each
	// wrapper that carries replay-relevant state. The virtual clock is
	// shared by the whole chain.
	dev := in.oracle.Device()
	st.ClockNS = int64(dev.Clock().Elapsed())
	for d := dev; d != nil; {
		switch v := d.(type) {
		case *device.ResilientDevice:
			s := v.ExportState()
			st.Resilient = &s
			d = v.Inner()
		case *fault.Flaky:
			s := v.ExportState()
			st.Flaky = &s
			d = v.Inner()
		default:
			d = nil
		}
	}

	return checkpoint.Seal(&st)
}

// Restore reconstructs an ingestion session from checkpoint bytes. The
// caller supplies a freshly assembled pipeline — tracker engine, oracle
// (with its device chain), and configuration — equivalent to the one the
// checkpoint was taken from; Restore verifies the config and model
// echoes and the device-chain shape before applying any state, so a
// checkpoint from a different pipeline fails loudly instead of silently
// diverging. Corrupt bytes are rejected wholesale by the envelope
// checksum; a semantically invalid snapshot (inconsistent hypothesis,
// dangling merger parent, unknown carried track, mismatched cache
// dimensionality) is rejected before the oracle or devices are mutated.
//
// The session's view is derived state: a history session replays it
// from its log, a plain session that had one rebuilds it from the
// retired ledger, the stream's boxes up to the checkpointed feed
// cursors, and the merger's event log.
func Restore(engine *track.Engine, oracle *reid.Oracle, cfg Config, data []byte) (*Ingestor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var st sessionState
	if err := checkpoint.Open(data, &st); err != nil {
		return nil, err
	}

	// Pipeline-equivalence echoes.
	if st.WindowLen != cfg.WindowLen {
		return nil, fmt.Errorf("ingest: restore: checkpoint has window length %d, config has %d", st.WindowLen, cfg.WindowLen)
	}
	if st.K != cfg.K {
		return nil, fmt.Errorf("ingest: restore: checkpoint has K=%g, config has K=%g", st.K, cfg.K)
	}
	if got := cfg.Algorithm.Name(); st.Algorithm != got {
		return nil, fmt.Errorf("ingest: restore: checkpoint was taken under algorithm %q, config has %q", st.Algorithm, got)
	}
	if m := oracle.Model(); st.ModelInDim != m.InDim || st.ModelScale != m.Scale() {
		return nil, fmt.Errorf("ingest: restore: checkpoint model (in_dim=%d scale=%g) does not match oracle model (in_dim=%d scale=%g)",
			st.ModelInDim, st.ModelScale, m.InDim, m.Scale())
	}

	// Cursor sanity.
	if st.NextFrame < 0 || st.NextWindow < 0 {
		return nil, fmt.Errorf("ingest: restore: negative cursors (frame %d, window %d)", st.NextFrame, st.NextWindow)
	}
	if st.ClockNS < 0 {
		return nil, fmt.Errorf("ingest: restore: negative clock %d ns", st.ClockNS)
	}

	// Reconstruct the side-effect-free components first; their
	// validation failures leave the caller's pipeline untouched.
	stream, err := engine.RestoreStream(st.Stream)
	if err != nil {
		return nil, fmt.Errorf("ingest: restore: %w", err)
	}
	merger, err := core.RestoreMerger(st.Merger)
	if err != nil {
		return nil, fmt.Errorf("ingest: restore: %w", err)
	}
	// Retired track IDs must be unique across the ledger and the stream,
	// or MergedTracks could not build a track set.
	retired := fromLedger(st.Retired)
	for _, t := range retired {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: restore: retired track invalid: %w", err)
		}
	}
	snap := stream.Snapshot()
	live := make(map[video.TrackID]*video.Track, len(snap))
	ids := make(map[video.TrackID]bool, len(snap)+len(retired))
	for i, t := range append(snap, retired...) {
		if ids[t.ID] {
			return nil, fmt.Errorf("ingest: restore: track %d is both retired and live, or retired twice", t.ID)
		}
		ids[t.ID] = true
		if i < len(snap) {
			live[t.ID] = t
		}
	}
	// The previous window's tracks start at or after its Start, so none
	// can have retired: each is a live track, clipped to the window again.
	var prevTc []*video.Track
	for _, id := range st.PrevTc {
		var c *video.Track
		if t := live[id]; t != nil && len(st.Results) > 0 {
			w := st.Results[len(st.Results)-1].Window
			c = video.ClipTrack(t, w.Start, w.End)
		}
		if c == nil {
			return nil, fmt.Errorf("ingest: restore: carried window track %d is not a live track of the last committed window", id)
		}
		prevTc = append(prevTc, c)
	}
	// Every feed cursor must name a live track and fit its boxes.
	fed := 0
	for _, t := range snap {
		if n, ok := st.Fed[t.ID]; ok {
			if n <= 0 || n > len(t.Boxes) {
				return nil, fmt.Errorf("ingest: restore: view feed cursor %d out of range for track %d with %d boxes", n, t.ID, len(t.Boxes))
			}
			fed++
		}
	}
	if fed != len(st.Fed) {
		return nil, fmt.Errorf("ingest: restore: %d view feed cursors name tracks the stream does not hold", len(st.Fed)-fed)
	}
	if st.Quarantine.Cap <= 0 {
		return nil, fmt.Errorf("ingest: restore: quarantine cap %d must be positive", st.Quarantine.Cap)
	}

	// History-mode / plain-mode agreement: a checkpoint taken with an
	// on-disk history must be restored with one (same horizon — checked
	// in restoreHistory), and vice versa.
	if (st.History != nil) != (cfg.History != nil) {
		return nil, fmt.Errorf("ingest: restore: checkpoint history reference present=%v, config history enabled=%v",
			st.History != nil, cfg.History != nil)
	}
	var pending map[string]query.OperatorState
	if len(st.Subscriptions) > 0 {
		pending = make(map[string]query.OperatorState, len(st.Subscriptions))
		for _, sub := range st.Subscriptions {
			if sub.Name == "" {
				return nil, fmt.Errorf("ingest: restore: checkpoint subscription with empty name")
			}
			if _, dup := pending[sub.Name]; dup {
				return nil, fmt.Errorf("ingest: restore: duplicate checkpoint subscription %q", sub.Name)
			}
			pending[sub.Name] = sub.Op
		}
	}
	in := &Ingestor{
		cfg:        cfg,
		stream:     stream,
		oracle:     oracle,
		merger:     merger,
		nextFrame:  st.NextFrame,
		nextWindow: st.NextWindow,
		prevTc:     prevTc,
		results:    st.Results,
		retired:    retired,
		quar:       quarantineFromState(st.Quarantine),
		quarMark:   st.QuarantineMark,
		fed:        st.Fed,
		pendingOps: pending,
		runWindows: core.RunWindows,
	}

	// The view. History sessions cut the on-disk log back to exactly the
	// checkpoint's reference, replay the view from segments, and re-tier
	// it at the restored horizon, so the session resumes with the hot/cold
	// partition the checkpointed session held.
	switch {
	case st.History != nil:
		if st.Fed == nil {
			return nil, fmt.Errorf("ingest: restore: history checkpoint carries no view feed cursors")
		}
		h, view, err := restoreHistory(cfg, &st)
		if err != nil {
			return nil, err
		}
		view.EvictBefore(in.lastClosedEnd() + 1 - video.FrameIndex(h.horizon))
		in.hist, in.view = h, view
	case st.Fed != nil:
		err := in.buildView(func() {
			for _, t := range sortTracks(snap) {
				in.feedTo(t, st.Fed[t.ID])
			}
		})
		if err != nil {
			return nil, fmt.Errorf("ingest: restore: rebuilding the view: %w", err)
		}
	}

	// Locate the device wrappers the snapshot claims. A snapshot/chain
	// shape mismatch means the caller assembled a different pipeline.
	var resilient *device.ResilientDevice
	var flaky *fault.Flaky
	for d := oracle.Device(); d != nil; {
		switch v := d.(type) {
		case *device.ResilientDevice:
			resilient = v
			d = v.Inner()
		case *fault.Flaky:
			flaky = v
			d = v.Inner()
		default:
			d = nil
		}
	}
	if (st.Resilient != nil) != (resilient != nil) {
		return nil, fmt.Errorf("ingest: restore: checkpoint resilient-device state present=%v, pipeline has resilient device=%v",
			st.Resilient != nil, resilient != nil)
	}
	if (st.Flaky != nil) != (flaky != nil) {
		return nil, fmt.Errorf("ingest: restore: checkpoint fault-injection state present=%v, pipeline has fault injector=%v",
			st.Flaky != nil, flaky != nil)
	}

	// Pre-validate the mutating restores so the apply phase below cannot
	// fail partway: each Import/Restore call also validates internally,
	// but by then earlier components would already be mutated.
	if st.Resilient != nil {
		if b := st.Resilient.Breaker; b < device.BreakerClosed || b > device.BreakerHalfOpen {
			return nil, fmt.Errorf("ingest: restore: invalid breaker state %d", b)
		}
	}
	if st.Flaky != nil && st.Flaky.Next < 0 {
		return nil, fmt.Errorf("ingest: restore: negative fault-injection cursor %d", st.Flaky.Next)
	}
	for _, cf := range st.Oracle.Cache {
		if len(cf.Vec) != oracle.Model().OutDim {
			return nil, fmt.Errorf("ingest: restore: cached feature %d has dim %d, model outputs %d",
				cf.ID, len(cf.Vec), oracle.Model().OutDim)
		}
	}

	// Apply.
	if err := oracle.RestoreState(st.Oracle); err != nil {
		return nil, fmt.Errorf("ingest: restore: %w", err)
	}
	if st.Resilient != nil {
		if err := resilient.ImportState(*st.Resilient); err != nil {
			return nil, fmt.Errorf("ingest: restore: %w", err)
		}
	}
	if st.Flaky != nil {
		if err := flaky.ImportState(*st.Flaky); err != nil {
			return nil, fmt.Errorf("ingest: restore: %w", err)
		}
	}
	oracle.Device().Clock().SetElapsed(time.Duration(st.ClockNS))
	return in, nil
}
