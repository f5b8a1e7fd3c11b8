// Package ingest implements the online ingestion workflow of §II for
// video *streams*: detections arrive one frame at a time, an online
// tracker runs incrementally, each half-overlapping window is processed
// the moment the stream passes its end, and confirmed polyonymous pairs
// are merged into a continuously maintained identity map. Downstream
// query processing can consult the merged track set at any time — without
// waiting for the stream to end, which may never happen.
package ingest

import (
	"fmt"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// Inspector decides whether a selected candidate pair really is
// polyonymous — the paper's optional human-inspection step, expressed as
// a callback so deployments can wire in an actual review queue, a
// second-stage model, or (in evaluation) the ground truth.
type Inspector func(p *video.Pair) bool

// Config parameterises a streaming ingestion session.
type Config struct {
	// WindowLen is the window length L in frames; it must be positive and
	// even, and should be at least twice the longest expected track.
	WindowLen int
	// K is the candidate proportion per window.
	K float64
	// Algorithm selects the candidates of each closed window.
	Algorithm core.Algorithm
	// Inspect, when non-nil, filters candidates before merging. Nil
	// merges every selected candidate.
	Inspect Inspector
	// QuarantineCap bounds the dead-letter buffer of rejected
	// detections. Zero selects DefaultQuarantineCap; counters are never
	// capped, only the retained detections.
	QuarantineCap int
	// AutoCheckpointEvery, when positive, seals a checkpoint after every
	// N processed windows and hands the bytes to CheckpointSink. Zero
	// disables automatic checkpointing (Checkpoint can still be called
	// explicitly at any time).
	AutoCheckpointEvery int
	// CheckpointSink receives automatic checkpoints (typically writing
	// them to durable storage). Required when AutoCheckpointEvery is
	// positive. A sink error does not stop the stream; it is retained
	// and reported by CheckpointErr.
	CheckpointSink func([]byte) error
	// History, when non-nil, enables the log-structured on-disk history:
	// per-window journaling to segmented log files, the tiered
	// bounded-memory view, manifest-referencing checkpoints, and AsOf
	// time-travel queries. See HistoryConfig.
	History *HistoryConfig
	// Workers bounds the window engine's worker pool when one push (or
	// Close) closes several windows at once — a stream gap jumping
	// multiple window boundaries, or a long tail flushed by Close. 0
	// selects runtime.NumCPU(), 1 speculates every window on the calling
	// goroutine; every setting produces bit-identical results
	// (DESIGN.md §10).
	// Windows are always fully processed before the push returns, so
	// checkpoints never observe in-flight window state regardless of
	// Workers. Negative values are rejected by Validate.
	Workers int
}

// Validate reports whether the configuration is usable: WindowLen must be
// positive and even (streams have no whole-video mode), K in (0, 1], and
// Algorithm non-nil. New rejects invalid configurations with this error.
func (cfg Config) Validate() error {
	if cfg.WindowLen <= 0 || cfg.WindowLen%2 != 0 {
		return fmt.Errorf("ingest: window length must be positive and even, got %d", cfg.WindowLen)
	}
	if cfg.Algorithm == nil {
		return fmt.Errorf("ingest: nil selection algorithm")
	}
	if cfg.K <= 0 || cfg.K > 1 {
		return fmt.Errorf("ingest: K must be in (0, 1], got %g", cfg.K)
	}
	if cfg.QuarantineCap < 0 {
		return fmt.Errorf("ingest: quarantine cap must be >= 0, got %d", cfg.QuarantineCap)
	}
	if cfg.AutoCheckpointEvery < 0 {
		return fmt.Errorf("ingest: auto-checkpoint interval must be >= 0, got %d", cfg.AutoCheckpointEvery)
	}
	if cfg.AutoCheckpointEvery > 0 && cfg.CheckpointSink == nil {
		return fmt.Errorf("ingest: auto-checkpointing every %d windows needs a CheckpointSink", cfg.AutoCheckpointEvery)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("ingest: Workers must be >= 0, got %d", cfg.Workers)
	}
	if cfg.History != nil {
		if err := cfg.History.validate(cfg.WindowLen); err != nil {
			return err
		}
	}
	return nil
}

// WindowResult reports one processed window.
type WindowResult struct {
	Window   video.Window
	Pairs    int
	Selected []video.PairKey
	Merged   []video.PairKey // selected pairs that passed inspection
	// Degraded reports that the ReID device was unavailable while this
	// window was certified and Selected was ranked by the spatial prior
	// alone (see core.RunWindows). The stream keeps flowing; the next
	// window retries the oracle path.
	Degraded bool
	// Quarantined counts detections (and frame-level rejects) quarantined
	// since the previous window closed.
	Quarantined int
	// Events is this window's slice of the merger's ordered union log:
	// the effective unions committing this window caused, in commit
	// order (see core.MergeEvent). Always populated, with or without
	// subscriptions, so downstream consumers can maintain their own
	// materialised views. The slice aliases the merger's append-only log
	// and must not be modified.
	Events []core.MergeEvent
	// Queries carries the incremental output of every subscription for
	// this window, in subscription registration order. Empty when the
	// session has no subscriptions.
	Queries []QueryDeltas
}

// QueryDeltas is one subscription's delta output for one window: the
// result rows the window's track extensions and merges newly qualified
// (asserts) or withdrew (retracts — identity coalescing under a merge).
type QueryDeltas struct {
	Name   string
	Deltas []query.Delta
}

// Ingestor is an online ingestion session. It is not safe for concurrent
// use: PushAt, Close, Subscribe, Checkpoint, and the other accessors
// must all run on one goroutine. Two read-only exceptions exist for
// monitoring: Quarantine() and the resilience/oracle counters reachable
// through Oracle() (reid.Oracle.Stats, device.ResilientDevice.Counters /
// State) are safe to call from another goroutine while a PushAt is in
// flight — the serving layer's health snapshots poll them exactly that
// way.
type Ingestor struct {
	cfg    Config
	stream *track.Stream
	oracle *reid.Oracle
	merger *core.Merger

	nextFrame  video.FrameIndex
	nextWindow int
	prevTc     []*video.Track
	results    []WindowResult

	// retired is the ledger of tracks the stream no longer holds: every
	// finished track whose last box precedes the Start of the last
	// committed window (see retire). Its boxes carry no Obs.
	// MergedTracks and Result read it together with the live tracks.
	retired []*video.Track
	// keep is retire's reusable buffer of box IDs the feature cache
	// retains.
	keep []video.BBoxID
	// keepAll disables retirement and feature-cache eviction: the
	// never-retire reference session the differential tests compare
	// against.
	keepAll bool

	quar     *quarantine
	quarMark int // quarantine total at the last window close

	// view is the live materialised merged-track view, created lazily by
	// the first Subscribe (or by Restore) and advanced at every window
	// commit: track extensions first, then the window's merge events.
	// Nil in history mode, where hist.tier plays its role.
	view *trackdb.LiveView
	// hist is the log-structured history machinery (on-disk journal +
	// tiered view), present iff cfg.History is set. Created eagerly at
	// New/Restore: the journal must cover every window from 0.
	hist *history
	// fed counts, per live stream track, how many of its boxes have been
	// folded into the view — the incremental feed cursor. A track's
	// entry goes when it retires: by then every box is in the view.
	fed  map[video.TrackID]int
	subs []subscription
	// pendingOps parks checkpointed operator states between Restore and
	// the re-Subscribe that claims them by name.
	pendingOps map[string]query.OperatorState

	// runWindows is core.RunWindows; the equivalence tests install a
	// sequential reference here.
	runWindows core.WindowRunner

	windowsSinceCkpt int
	// ckptCompactions is hist's compaction count at the last sealed
	// checkpoint; a newer compaction forces the next auto-checkpoint
	// regardless of the window cadence (see maybeAutoCheckpoint).
	ckptCompactions int
	ckptErr         error
}

// subscription is one registered incremental query operator.
type subscription struct {
	name string
	op   query.Incremental
}

// New returns an ingestion session over the given tracker engine, oracle,
// and configuration.
func New(engine *track.Engine, oracle *reid.Oracle, cfg Config) (*Ingestor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Ingestor{
		cfg:        cfg,
		stream:     engine.NewStream(),
		oracle:     oracle,
		merger:     core.NewMerger(),
		quar:       newQuarantine(cfg.QuarantineCap),
		runWindows: core.RunWindows,
	}
	if cfg.History != nil {
		h, err := newHistory(cfg)
		if err != nil {
			return nil, err
		}
		in.hist = h
		in.fed = make(map[video.TrackID]int)
	}
	return in, nil
}

// Push consumes the next frame of detections and returns the results of
// any windows the stream just closed (usually zero or one). Frames are
// implicitly numbered 0, 1, 2, ...; Push(dets) is PushAt(FramesSeen(),
// dets).
func (in *Ingestor) Push(dets []video.BBox) []WindowResult {
	return in.PushAt(in.nextFrame, dets)
}

// PushAt consumes the detections of frame f and returns the results of
// any windows the stream just closed (usually zero or one).
//
// Frame index semantics: the stream cursor only moves forward. A frame
// index equal to the last accepted one is a duplicate — the whole frame
// is quarantined (first write wins) and the cursor stays put. An index
// before the last accepted one has regressed — likewise quarantined
// whole. An index beyond the cursor is a gap: it is accepted, the
// skipped frames count as misses for every open track hypothesis, and
// the cursor jumps past it. Within an accepted frame, each detection is
// vetted individually (finite geometry, positive size, matching frame
// index, finite observation); hostile detections are quarantined with a
// per-reason counter while the rest of the frame proceeds, so one broken
// detector output cannot poison tracker state or stall the stream.
func (in *Ingestor) PushAt(f video.FrameIndex, dets []video.BBox) []WindowResult {
	switch {
	case f < 0 || f < in.nextFrame-1:
		in.quar.addFrame(f, dets, ReasonFrameRegressed)
		return nil
	case in.nextFrame > 0 && f == in.nextFrame-1:
		in.quar.addFrame(f, dets, ReasonFrameDuplicate)
		return nil
	}

	accepted := make([]video.BBox, 0, len(dets))
	for _, b := range dets {
		if reason, ok := classifyDetection(f, b); !ok {
			in.quar.add(f, b, reason)
		} else {
			accepted = append(accepted, b)
		}
	}

	in.nextFrame = f + 1
	in.stream.Step(f, accepted)

	var pend []video.Window
	for {
		w := in.pendingWindow()
		if f < w.End {
			break
		}
		pend = append(pend, w)
		in.nextWindow++
	}
	closed := in.processWindows(pend)
	in.maybeAutoCheckpoint(len(closed))
	return closed
}

// maybeAutoCheckpoint seals and emits a checkpoint when enough windows
// have closed since the last one. It runs after the window loop, so a
// checkpoint always captures a consistent between-frames state. A
// history compaction forces the checkpoint regardless of the window
// cadence: compaction folds the log positions earlier checkpoints
// reference into the base snapshot, so the retained checkpoint must be
// re-sealed in the same push before anything can crash between them.
func (in *Ingestor) maybeAutoCheckpoint(closed int) {
	if in.cfg.AutoCheckpointEvery <= 0 || closed == 0 {
		return
	}
	in.windowsSinceCkpt += closed
	compacted := in.hist != nil && in.hist.compactions > in.ckptCompactions
	if in.windowsSinceCkpt < in.cfg.AutoCheckpointEvery && !compacted {
		return
	}
	in.windowsSinceCkpt = 0
	data, err := in.Checkpoint()
	if err == nil {
		err = in.cfg.CheckpointSink(data)
	}
	if err != nil {
		in.ckptErr = err
	}
}

// CheckpointErr returns the most recent automatic-checkpoint failure
// (sealing or sink), or nil. Checkpoint failures do not stop the stream;
// callers that care about durability should poll this.
func (in *Ingestor) CheckpointErr() error { return in.ckptErr }

// Close flushes the final partial window (if any frames remain beyond the
// last processed window's first half) and returns its results.
func (in *Ingestor) Close() []WindowResult {
	var pend []video.Window
	for {
		w := in.pendingWindow()
		if w.Start >= in.nextFrame {
			break
		}
		if w.End > in.nextFrame-1 {
			w.End = in.nextFrame - 1
		}
		pend = append(pend, w)
		in.nextWindow++
	}
	return in.processWindows(pend)
}

// pendingWindow returns the next unprocessed window.
func (in *Ingestor) pendingWindow() video.Window {
	half := in.cfg.WindowLen / 2
	start := video.FrameIndex(in.nextWindow * half)
	return video.Window{
		Index:   in.nextWindow,
		Start:   start,
		End:     start + video.FrameIndex(in.cfg.WindowLen) - 1,
		Nominal: in.cfg.WindowLen,
	}
}

// windowTracks snapshots Tc for one window: tracks starting in the
// window's first half, clipped to the window. Snapshot includes
// still-active tracks; their boxes beyond w.End are excluded by
// clipping, so the view is stable.
func (in *Ingestor) windowTracks(w video.Window) []*video.Track {
	var cur []*video.Track
	for _, t := range sortTracks(in.stream.Snapshot()) {
		if t.StartFrame() < w.Start || t.StartFrame() > w.FirstHalfEnd() {
			continue
		}
		if c := video.ClipTrack(t, w.Start, w.End); c != nil {
			cur = append(cur, c)
		}
	}
	return cur
}

// processWindows runs the batch of windows one push (or Close) just
// closed through the window engine (core.RunWindows). The usual batch
// size is one; gaps that jump several window boundaries and the Close
// flush can close more, and those batches speculate selection on up to
// cfg.Workers goroutines. Every window is fully committed before this
// returns, so a checkpoint taken afterwards never captures in-flight
// state.
func (in *Ingestor) processWindows(ws []video.Window) []WindowResult {
	if len(ws) == 0 {
		return nil
	}

	// Window inputs are prepared sequentially: the Tc / previous-Tc chain
	// and the quarantine-delta attribution are inherently ordered.
	out := make([]WindowResult, len(ws))
	pairSets := make([]*video.PairSet, len(ws))
	for i, w := range ws {
		cur := in.windowTracks(w)
		total := in.quar.totalCount()
		pairSets[i] = video.BuildPairSet(w, cur, in.prevTc)
		out[i] = WindowResult{Window: w, Pairs: pairSets[i].Len(), Quarantined: total - in.quarMark}
		in.quarMark = total
		in.prevTc = cur
	}

	in.runWindows(in.cfg.Algorithm, in.cfg.K, in.oracle, in.merger, in.cfg.Inspect, in.cfg.Workers, len(ws),
		func(i int) *video.PairSet { return pairSets[i] },
		func(i int, w core.WindowOutcome) {
			res := &out[i]
			res.Selected, res.Merged, res.Degraded, res.Events = w.Selected, w.Merged, w.Degraded, w.Events
			in.commitWindow(res)
			in.results = append(in.results, *res)
		})
	if !in.keepAll {
		in.retire(ws[len(ws)-1].Start)
	}
	return out
}

// retire drops the session state no future window can read, once the
// windows up to one starting at frame start are committed. Every later
// window starts after start and reads only tracks starting in its own
// first half (windowTracks) plus prevTc, whose boxes all lie at or after
// start. So:
//
//   - a finished track whose last box precedes start is never read
//     again. It moves from the stream to the retired ledger, without its
//     Kalman state, appearance EMA and box Obs; its view feed cursor
//     goes too, since every box is already in the view;
//   - no future pair can name a box before start. The feature cache
//     keeps only the boxes of live tracks at or after start (prevTc's
//     boxes are among them), so cache hits, extractions and the virtual
//     clock are unchanged.
//
// The cost is proportional to the hot state: the finished hypotheses
// the stream still holds, and the live boxes at or after start.
func (in *Ingestor) retire(start video.FrameIndex) {
	for _, t := range in.stream.RetireBefore(start) {
		boxes := make([]video.BBox, len(t.Boxes))
		for i, b := range t.Boxes {
			b.Obs = nil
			boxes[i] = b
		}
		in.retired = append(in.retired, &video.Track{ID: t.ID, Boxes: boxes})
		delete(in.fed, t.ID)
	}
	// Only visible tracks can have cached boxes: pairs are built from
	// Snapshot, and a hypothesis never becomes invisible again.
	in.keep = in.keep[:0]
	for _, t := range in.stream.Snapshot() {
		for i := len(t.Boxes) - 1; i >= 0 && t.Boxes[i].Frame >= start; i-- {
			in.keep = append(in.keep, t.Boxes[i].ID)
		}
	}
	in.oracle.RetainFeatures(in.keep)
}

// commitWindow advances the session's view (plain or tiered) and its
// subscriptions past one merged window, filling res.Queries.
func (in *Ingestor) commitWindow(res *WindowResult) {
	switch {
	case in.hist != nil:
		h := in.hist
		h.beginWindow()
		in.feedBoxes(res.Window.End)
		if err := h.tier.ApplyEvents(res.Events); err != nil {
			// Unlike the plain view below, the tiered view can fail on
			// I/O (cold-store paging during rehydration); that degrades
			// the session instead of crashing it.
			h.fail(err)
		}
		changed, removed := h.tier.Flush()
		for _, s := range in.subs {
			res.Queries = append(res.Queries, QueryDeltas{Name: s.name, Deltas: s.op.Apply(h.tier, changed, removed)})
		}
		h.commitWindow(in.merger, res.Window, res.Events)
	case in.view != nil:
		in.feedBoxes(res.Window.End)
		if err := in.view.ApplyEvents(res.Events); err != nil {
			// Every merged track starts in this window's first half, so
			// the feed above has shown the view both sides of every
			// event; a failure here is a broken invariant, not input.
			panic(fmt.Sprintf("ingest: live view diverged from merger: %v", err))
		}
		changed, removed := in.view.Flush()
		for _, s := range in.subs {
			res.Queries = append(res.Queries, QueryDeltas{Name: s.name, Deltas: s.op.Apply(in.view, changed, removed)})
		}
	}
}

// Subscribe registers an incremental query operator under a unique name.
// From the next closed window on, every WindowResult carries the
// operator's deltas under that name (WindowResult.Queries), and at every
// window boundary the operator's Results equal the batch answer over
// MergedTracks() — incremental and batch are interchangeable at any cut.
//
// Subscribing mid-stream is allowed: the session materialises the live
// view up to the last committed window and the returned deltas are the
// bootstrap assertions folding that state into the empty operator (nil
// when no window has closed yet). After Restore, a subscription whose
// name matches a checkpointed one adopts the checkpointed operator state
// instead; the operator must be configured identically (RestoreState
// verifies the parameter echo) and the returned deltas are nil, because
// the restored session already holds those results.
func (in *Ingestor) Subscribe(name string, op query.Incremental) ([]query.Delta, error) {
	if name == "" {
		return nil, fmt.Errorf("ingest: subscription name must be non-empty")
	}
	if op == nil {
		return nil, fmt.Errorf("ingest: nil operator for subscription %q", name)
	}
	for _, s := range in.subs {
		if s.name == name {
			return nil, fmt.Errorf("ingest: duplicate subscription %q", name)
		}
	}
	in.ensureView()
	if st, ok := in.pendingOps[name]; ok {
		if err := op.RestoreState(st); err != nil {
			return nil, fmt.Errorf("ingest: subscription %q: %w", name, err)
		}
		delete(in.pendingOps, name)
		in.subs = append(in.subs, subscription{name: name, op: op})
		return nil, nil
	}
	v := in.queryView()
	deltas := op.Apply(v, v.IDs(), nil)
	in.subs = append(in.subs, subscription{name: name, op: op})
	return deltas, nil
}

// Subscriptions returns the registered subscription names in
// registration order.
func (in *Ingestor) Subscriptions() []string {
	out := make([]string, len(in.subs))
	for i, s := range in.subs {
		out[i] = s.name
	}
	return out
}

// Operator returns the incremental operator registered under name (nil
// when no such subscription exists) — the handle for reading live
// Results without waiting for window deltas.
func (in *Ingestor) Operator(name string) query.Incremental {
	for _, s := range in.subs {
		if s.name == name {
			return s.op
		}
	}
	return nil
}

// queryView returns the track view query operators run against: the
// tiered view in history mode, the plain live view otherwise (nil when
// neither exists yet).
func (in *Ingestor) queryView() query.TrackView {
	if in.hist != nil {
		return in.hist.tier
	}
	if in.view == nil {
		return nil
	}
	return in.view
}

// ensureView creates the live view on first use and backfills it to the
// session's current committed state: every retired box, every stream box
// up to the last closed window's end, then the full merge-event log.
// History sessions maintain their (tiered) view from window 0, so this
// is a no-op there.
func (in *Ingestor) ensureView() {
	if in.view != nil || in.hist != nil {
		return
	}
	in.view = trackdb.NewLiveView()
	in.fed = make(map[video.TrackID]int)
	for _, t := range in.retired {
		for _, b := range t.Boxes {
			in.view.Extend(t.ID, b)
		}
	}
	if end := in.lastClosedEnd(); end >= 0 {
		in.feedBoxes(end)
	}
	if err := in.view.ApplyEvents(in.merger.Events()); err != nil {
		panic(fmt.Sprintf("ingest: live view diverged from merger: %v", err))
	}
	in.view.Flush()
}

// feedBoxes advances the live view to frame end: every stream box with
// Frame <= end not yet folded in is applied as a track extension, in
// frame order within each track. The fed cursors make the walk
// incremental — each box is fed exactly once across the session.
func (in *Ingestor) feedBoxes(end video.FrameIndex) {
	for _, t := range sortTracks(in.stream.Snapshot()) {
		n := in.fed[t.ID]
		for n < len(t.Boxes) && t.Boxes[n].Frame <= end {
			if in.hist != nil {
				in.hist.extend(t.ID, t.Boxes[n])
			} else {
				in.view.Extend(t.ID, t.Boxes[n])
			}
			n++
		}
		if n != in.fed[t.ID] {
			in.fed[t.ID] = n
		}
	}
}

// lastClosedEnd returns the End of the most recently committed window,
// or -1 when no window has closed. Window ends are non-decreasing (the
// Close clip never cuts below an already-committed end), so this is the
// view's feed horizon.
func (in *Ingestor) lastClosedEnd() video.FrameIndex {
	if len(in.results) == 0 {
		return -1
	}
	return in.results[len(in.results)-1].Window.End
}

// Results returns every window processed so far.
func (in *Ingestor) Results() []WindowResult { return in.results }

// Merger exposes the accumulated identity map.
func (in *Ingestor) Merger() *core.Merger { return in.merger }

// Oracle exposes the session's ReID oracle (for work accounting).
func (in *Ingestor) Oracle() *reid.Oracle { return in.oracle }

// MergedTracks returns the current track state with merged identities
// applied — the metadata a downstream query engine would consume. Boxes
// of retired tracks (see retire) carry no Obs: nothing downstream of
// selection reads appearance, and the fingerprint hashes box IDs only.
func (in *Ingestor) MergedTracks() *video.TrackSet {
	return in.merger.Apply(video.NewTrackSet(append(in.stream.Snapshot(), in.retired...)))
}

// FramesSeen returns how many frames the stream cursor has passed (the
// next expected frame index; gaps count as seen).
func (in *Ingestor) FramesSeen() int { return int(in.nextFrame) }

// Quarantine returns a detached snapshot of the quarantine ledger:
// per-reason reject counters and the retained dead-letter buffer.
// Unlike the rest of the Ingestor API it is safe to call concurrently
// with an in-flight PushAt (the ledger carries its own lock), so health
// monitors can poll it from another goroutine.
func (in *Ingestor) Quarantine() QuarantineReport { return in.quar.report() }

func sortTracks(ts []*video.Track) []*video.Track {
	// Snapshot order is already deterministic (finished then active, in
	// creation order); normalise to the canonical sort used elsewhere.
	set := video.NewTrackSet(ts)
	return set.Sorted()
}
