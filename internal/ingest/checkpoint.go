package ingest

import (
	"fmt"
	"sort"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// Checkpoint seals the session's full mutable state — tracker
// hypotheses, identity map, ReID cache and counters, device resilience
// state, quarantine ledger, window results, and cursors — into a
// self-contained, versioned, checksummed byte slice. A session restored
// from it and fed the same subsequent frames produces bit-identical
// window results and merged tracks to the uninterrupted session.
//
// Call it between pushes only: the snapshot is taken at a frame
// boundary, which is the unit of replay.
//
// History sessions first seal the active history segment — durability
// of the journal is ordered before the checkpoint that references it —
// then trim the in-memory merger log to the sealed prefix and record a
// HistoryRef (manifest position) instead of embedding the view state.
// A session whose history log has already failed refuses to
// checkpoint: the reference could point at state the log does not
// actually hold.
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
	st := checkpoint.SessionState{
		WindowLen:  in.cfg.WindowLen,
		K:          in.cfg.K,
		Algorithm:  in.cfg.Algorithm.Name(),
		ModelInDim: in.oracle.Model().InDim,
		ModelScale: in.oracle.Model().Scale(),

		NextFrame:  in.nextFrame,
		NextWindow: in.nextWindow,

		Stream:  in.stream.State(),
		Retired: in.retired,
		Merger:  in.merger.State(),
		Oracle:  in.oracle.State(),

		Quarantine:     in.quar.state(),
		QuarantineMark: in.quarMark,

		CreatedAtFrame: in.nextFrame,
	}
	for _, t := range in.prevTc {
		st.PrevTc = append(st.PrevTc, copyTrack(t))
	}
	for _, r := range in.results {
		st.Results = append(st.Results, toRecord(r))
	}

	// Streaming-query state: the live view (embedded for plain sessions,
	// referenced by manifest position for history sessions) and every
	// operator, so the restored session resumes incremental processing
	// without recomputing anything. Registered subscriptions first
	// (registration order), then any still-unclaimed restored states,
	// sorted by name.
	if in.view != nil {
		vs := in.view.State()
		st.View = &vs
	}
	if in.hist != nil {
		st.History = &checkpoint.HistoryRef{
			Windows:    in.hist.log.Windows(),
			Seq:        in.hist.log.Seq(),
			HotHorizon: in.hist.horizon,
		}
	}
	if in.view != nil || in.hist != nil {
		for _, s := range in.subs {
			st.Subscriptions = append(st.Subscriptions, checkpoint.SubscriptionState{Name: s.name, Op: s.op.State()})
		}
		if len(in.pendingOps) > 0 {
			names := make([]string, 0, len(in.pendingOps))
			for n := range in.pendingOps {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				st.Subscriptions = append(st.Subscriptions, checkpoint.SubscriptionState{Name: n, Op: in.pendingOps[n]})
			}
		}
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
// dangling merger parent, mismatched cache dimensionality) is rejected
// before the oracle or devices are mutated.
func Restore(engine *track.Engine, oracle *reid.Oracle, cfg Config, data []byte) (*Ingestor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var st checkpoint.SessionState
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
	// Retired tracks are read-only from here on and need no copy, but
	// their IDs must be unique across the ledger and the stream, or
	// MergedTracks could not build a track set.
	for _, t := range st.Retired {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: restore: retired track invalid: %w", err)
		}
	}
	live := stream.Snapshot()
	ids := make(map[video.TrackID]bool, len(live)+len(st.Retired))
	for _, t := range append(live, st.Retired...) {
		if ids[t.ID] {
			return nil, fmt.Errorf("ingest: restore: track %d is both retired and live, or retired twice", t.ID)
		}
		ids[t.ID] = true
	}
	var prevTc []*video.Track
	for _, t := range st.PrevTc {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: restore: carried window track invalid: %w", err)
		}
		prevTc = append(prevTc, copyTrack(t))
	}
	if st.Quarantine.Cap <= 0 {
		return nil, fmt.Errorf("ingest: restore: quarantine cap %d must be positive", st.Quarantine.Cap)
	}

	// History-mode / plain-mode agreement: a checkpoint taken with an
	// on-disk history must be restored with one (same horizon — checked
	// in restoreHistory), and vice versa; a checkpoint carrying both an
	// embedded view and a history reference is internally inconsistent.
	if (st.History != nil) != (cfg.History != nil) {
		return nil, fmt.Errorf("ingest: restore: checkpoint history reference present=%v, config history enabled=%v",
			st.History != nil, cfg.History != nil)
	}
	if st.History != nil && st.View != nil {
		return nil, fmt.Errorf("ingest: restore: checkpoint carries both an embedded view and a history reference")
	}

	// Streaming-query state. The view, when present, must have consumed
	// the merger's entire event log — checkpoints are taken between
	// pushes, after every committed window's events were applied.
	var view *trackdb.LiveView
	if st.View != nil {
		v, verr := trackdb.RestoreView(*st.View)
		if verr != nil {
			return nil, fmt.Errorf("ingest: restore: %w", verr)
		}
		if got, want := v.Seq(), st.Merger.EventBase+len(st.Merger.Events); got != want {
			return nil, fmt.Errorf("ingest: restore: view consumed %d merge events, merger log ends at %d", got, want)
		}
		view = v
	} else if len(st.Subscriptions) > 0 && st.History == nil {
		return nil, fmt.Errorf("ingest: restore: checkpoint has %d subscriptions but no view state", len(st.Subscriptions))
	}

	// History sessions replay the view from sealed segments instead; the
	// log is cut back to exactly the checkpoint's reference first.
	var hist *history
	if st.History != nil {
		h, herr := restoreHistory(cfg, &st)
		if herr != nil {
			return nil, herr
		}
		hist = h
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
	oracle.Device().Clock().SetElapsed(st.Elapsed())

	in := &Ingestor{
		cfg:        cfg,
		stream:     stream,
		oracle:     oracle,
		merger:     merger,
		nextFrame:  st.NextFrame,
		nextWindow: st.NextWindow,
		prevTc:     prevTc,
		retired:    st.Retired,
		quar:       quarantineFromState(st.Quarantine),
		quarMark:   st.QuarantineMark,
		view:       view,
		hist:       hist,
		pendingOps: pending,
		runWindows: core.RunWindows,
	}
	for _, r := range st.Results {
		in.results = append(in.results, fromRecord(r))
	}
	if view != nil || hist != nil {
		// Rebuild the feed cursors: every box at or before the last
		// committed window's end is already inside the restored view.
		in.fed = make(map[video.TrackID]int)
		in.markFed(in.lastClosedEnd())
	}
	if hist != nil {
		// Re-tier the replayed view at the restored horizon: the segment
		// replay produced a fully hot view, and the session resumes with
		// the same hot/cold partition the checkpointed session held.
		hist.tier.EvictBefore(in.lastClosedEnd() + 1 - video.FrameIndex(hist.horizon))
	}
	return in, nil
}

// markFed rebuilds the view feed cursors after restore, without touching
// the view itself: the restored view state already contains every stream
// box at or before frame end.
func (in *Ingestor) markFed(end video.FrameIndex) {
	for _, t := range in.stream.Snapshot() {
		n := 0
		for n < len(t.Boxes) && t.Boxes[n].Frame <= end {
			n++
		}
		if n > 0 {
			in.fed[t.ID] = n
		}
	}
}

func copyTrack(t *video.Track) *video.Track {
	return &video.Track{ID: t.ID, Boxes: append([]video.BBox(nil), t.Boxes...)}
}

func toRecord(r WindowResult) checkpoint.WindowRecord {
	rec := checkpoint.WindowRecord{
		Window:      r.Window,
		Pairs:       r.Pairs,
		Selected:    append([]video.PairKey(nil), r.Selected...),
		Merged:      append([]video.PairKey(nil), r.Merged...),
		Degraded:    r.Degraded,
		Quarantined: r.Quarantined,
		Events:      append([]core.MergeEvent(nil), r.Events...),
	}
	for _, q := range r.Queries {
		rec.Queries = append(rec.Queries, checkpoint.QueryRecord{Name: q.Name, Deltas: copyDeltas(q.Deltas)})
	}
	return rec
}

func fromRecord(r checkpoint.WindowRecord) WindowResult {
	res := WindowResult{
		Window:      r.Window,
		Pairs:       r.Pairs,
		Selected:    append([]video.PairKey(nil), r.Selected...),
		Merged:      append([]video.PairKey(nil), r.Merged...),
		Degraded:    r.Degraded,
		Quarantined: r.Quarantined,
		Events:      append([]core.MergeEvent(nil), r.Events...),
	}
	for _, q := range r.Queries {
		res.Queries = append(res.Queries, QueryDeltas{Name: q.Name, Deltas: copyDeltas(q.Deltas)})
	}
	return res
}

func copyDeltas(ds []query.Delta) []query.Delta {
	if ds == nil {
		return nil
	}
	out := make([]query.Delta, len(ds))
	for i, d := range ds {
		out[i] = query.Delta{Kind: d.Kind, Row: append([]video.TrackID(nil), d.Row...)}
	}
	return out
}
