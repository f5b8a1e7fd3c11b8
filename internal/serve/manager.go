package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
)

// Manager multiplexes N streams over a bounded shared worker pool. All
// methods are safe for concurrent use. One mutex guards every piece of
// scheduling state (queues, health, budget); it is never held across an
// ingestion push, a checkpoint restore, or any device submission, so
// the pool's throughput is bounded by the streams' work, not the lock.
type Manager struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond // one condition for every wait: ready work, queue room, recovery, drain, shutdown

	streams    map[string]*stream
	order      []string  // registration order, the Snapshot order
	ready      []*stream // FIFO of schedulable streams with queued frames (round-robin fairness)
	recoverq   []*stream // quarantined streams awaiting the supervisor
	waiting    []*stream // Pending streams awaiting admission, FIFO
	budget     int       // admitted window-budget units in use
	draining   bool      // Drain in progress: intake closed, queues flushing
	drainAbort bool      // Drain's context expired: stop waiting for the flush
	closed     bool

	wg sync.WaitGroup
}

// NewManager starts a manager with cfg's worker pool and supervisor.
// Call Shutdown to stop it; every goroutine the manager starts exits by
// the time Shutdown returns.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg.withDefaults(),
		streams: make(map[string]*stream),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.supervisor()
	return m
}

// windowCost is a stream's admission accounting: the number of windows
// its full frame queue can close at once, at least 1 — the in-flight
// window capacity admitting it hands the shared pool.
func windowCost(queueCap, windowLen int) int {
	half := windowLen / 2
	if half <= 0 {
		return 1
	}
	cost := (queueCap + half - 1) / half
	if cost < 1 {
		cost = 1
	}
	return cost
}

// Register admits a new stream (or, over budget with QueueAdmission
// set, parks it Pending; its frames are refused with ErrNotAdmitted
// until capacity frees). The spec's ingestion configuration is
// validated up front, with the manager's checkpoint sink installed.
func (m *Manager) Register(spec StreamSpec) error {
	if spec.ID == "" {
		return fmt.Errorf("serve: stream id must be non-empty")
	}
	if spec.Pipeline == nil {
		return fmt.Errorf("serve: stream %q: nil pipeline factory", spec.ID)
	}
	if m.cfg.History != nil && spec.Ingest.History == nil && !safeHistoryID(spec.ID) {
		return fmt.Errorf("serve: stream %q: id is not a safe history directory name", spec.ID)
	}
	s := &stream{
		id:       spec.ID,
		spec:     spec,
		queueCap: spec.QueueCap,
	}
	if s.queueCap <= 0 {
		s.queueCap = m.cfg.DefaultQueueCap
	}
	s.cost = windowCost(s.queueCap, spec.Ingest.WindowLen)
	s.cfg = m.sinkedConfig(s)
	if err := s.cfg.Validate(); err != nil {
		return err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrStopped
	}
	if m.draining {
		m.mu.Unlock()
		return ErrDraining
	}
	if _, dup := m.streams[spec.ID]; dup {
		m.mu.Unlock()
		return fmt.Errorf("serve: stream %q: %w", spec.ID, ErrDuplicateStream)
	}
	if m.cfg.WindowBudget > 0 && m.budget+s.cost > m.cfg.WindowBudget {
		if !m.cfg.QueueAdmission {
			m.mu.Unlock()
			return fmt.Errorf("serve: stream %q costs %d windows, %d of %d in use: %w",
				spec.ID, s.cost, m.budget, m.cfg.WindowBudget, ErrAdmission)
		}
		s.state = Pending
		m.streams[spec.ID] = s
		m.order = append(m.order, spec.ID)
		m.waiting = append(m.waiting, s)
		m.mu.Unlock()
		return nil
	}
	m.budget += s.cost
	m.streams[spec.ID] = s
	m.order = append(m.order, spec.ID)
	m.mu.Unlock()

	return m.startStream(s)
}

// safeHistoryID reports whether a stream ID can serve as its history
// directory name: no path separators, and not a dot entry that would
// escape or alias the root.
func safeHistoryID(id string) bool {
	return !strings.ContainsAny(id, `/\`) && id != "." && id != ".."
}

// sinkedConfig returns the spec's ingestion config with the manager's
// checkpoint sink installed — the sink retains the latest sealed
// checkpoint and truncates the replay buffer (the sealed state includes
// every replayed frame), then chains to the spec's own sink, if any —
// and, under a manager-level HistoryRoot, the stream's derived
// per-stream history configuration (specs carrying their own
// Ingest.History keep it).
func (m *Manager) sinkedConfig(s *stream) ingest.Config {
	cfg := s.spec.Ingest
	if m.cfg.History != nil && cfg.History == nil {
		cfg.History = m.cfg.History.config(s.id)
	}
	userSink := cfg.CheckpointSink
	if cfg.AutoCheckpointEvery > 0 {
		cfg.CheckpointSink = func(data []byte) error {
			m.mu.Lock()
			s.ckpt = data
			s.replay = s.replay[:0]
			m.mu.Unlock()
			if userSink != nil {
				return userSink(data)
			}
			return nil
		}
	}
	return cfg
}

// startStream builds an admitted stream's pipeline and session outside
// the manager lock and makes it schedulable. A spec carrying Resume
// bytes restores the checkpointed session instead of starting empty and
// seeds the crash-recovery state with those bytes, so a crash right
// after resumption rebuilds from the same checkpoint.
func (m *Manager) startStream(s *stream) error {
	engine, oracle := s.spec.Pipeline()
	var (
		ing *ingest.Ingestor
		err error
	)
	if len(s.spec.Resume) > 0 {
		ing, err = ingest.Restore(engine, oracle, s.cfg, s.spec.Resume)
	} else {
		ing, err = ingest.New(engine, oracle, s.cfg)
	}

	m.mu.Lock()
	if err != nil {
		s.state = Stopped
		s.lastErr = err
		m.budget -= s.cost
		m.cond.Broadcast()
		m.mu.Unlock()
		return err
	}
	s.ing = ing
	s.state = Healthy
	s.noteHistoryLocked(ing)
	if len(s.spec.Resume) > 0 {
		s.ckpt = s.spec.Resume
		s.frames = ing.FramesSeen()
		for _, r := range ing.Results() {
			s.windows++
			if r.Degraded {
				s.degraded++
			}
		}
	}
	m.scheduleLocked(s)
	m.cond.Broadcast()
	m.mu.Unlock()
	return nil
}

// scheduleLocked appends s to the ready FIFO when it is schedulable,
// has queued frames, and is not already queued or being processed.
func (m *Manager) scheduleLocked(s *stream) {
	if s.scheduled || s.active || len(s.queue) == 0 {
		return
	}
	if s.state != Healthy && s.state != Degraded {
		return
	}
	m.ready = append(m.ready, s)
	s.scheduled = true
}

// Push hands frame f's detections to the stream's bounded queue. When
// the queue is full it blocks for room, or — with Config.Shed — fails
// immediately with ErrOverloaded. Frames pushed to a Quarantined or
// Recovering stream queue normally and are processed after recovery.
// The detections slice is retained; the caller must not modify it.
func (m *Manager) Push(id string, f video.FrameIndex, dets []video.BBox) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.streams[id]
	if !ok {
		return fmt.Errorf("serve: stream %q: %w", id, ErrUnknownStream)
	}
	for {
		switch {
		case m.closed:
			return ErrStopped
		case m.draining:
			return fmt.Errorf("serve: stream %q: %w", id, ErrDraining)
		case s.state == Pending:
			return fmt.Errorf("serve: stream %q: %w", id, ErrNotAdmitted)
		case s.state == Stopped || s.inputClosed:
			return fmt.Errorf("serve: stream %q: %w", id, ErrStreamClosed)
		}
		if len(s.queue) < s.queueCap {
			break
		}
		if m.cfg.Shed {
			return fmt.Errorf("serve: stream %q: %w", id, ErrOverloaded)
		}
		m.cond.Wait()
	}
	s.queue = append(s.queue, pushItem{frame: f, dets: dets})
	m.scheduleLocked(s)
	m.cond.Broadcast()
	return nil
}

// Finish closes a stream's input, waits for its queue to drain (crash
// recoveries included), flushes the final partial window, and returns
// the stream's cumulative result — the fingerprintable
// core.PipelineResult its single-stream sequential run must match. The
// stream's admission budget is released, admitting Pending streams.
func (m *Manager) Finish(id string) (*core.PipelineResult, error) {
	m.mu.Lock()
	s, ok := m.streams[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: stream %q: %w", id, ErrUnknownStream)
	}
	if s.state == Pending {
		s.state = Stopped
		m.dropWaitingLocked(s)
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: stream %q: %w", id, ErrNotAdmitted)
	}
	if s.state == Stopped || s.inputClosed {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: stream %q: %w", id, ErrStreamClosed)
	}
	s.inputClosed = true

	const closeAttempts = 3
	for attempt := 0; ; attempt++ {
		for {
			if m.closed {
				m.mu.Unlock()
				return nil, ErrStopped
			}
			if (s.state == Healthy || s.state == Degraded) &&
				!s.active && !s.scheduled && len(s.queue) == 0 {
				break
			}
			if s.state == Quarantined && s.lastErr != nil && !s.inRecoverLocked(m) {
				// Recovery itself failed; the stream cannot be drained.
				err := s.lastErr
				m.mu.Unlock()
				return nil, fmt.Errorf("serve: stream %q unrecoverable: %w", id, err)
			}
			m.cond.Wait()
		}
		s.active = true
		ing := s.ing
		m.mu.Unlock()

		err := m.closeStream(s, ing)

		m.mu.Lock()
		s.active = false
		if err == nil {
			break
		}
		// The final flush panicked (a real fault, not an injected crash —
		// those only fire on the worker path): quarantine and let the
		// supervisor restore the pre-Close state, then retry the flush.
		s.state = Quarantined
		s.lastErr = err
		if attempt+1 >= closeAttempts {
			m.cond.Broadcast()
			m.mu.Unlock()
			return nil, fmt.Errorf("serve: stream %q: final flush failed %d times: %w", id, closeAttempts, err)
		}
		m.recoverq = append(m.recoverq, s)
		m.cond.Broadcast()
	}

	ing := s.ing
	m.mu.Unlock()
	res := ing.Result()

	m.mu.Lock()
	s.state = Stopped
	s.frames = res.FramesProcessed
	s.windows = len(res.Windows)
	s.degraded = res.DegradedWindows
	m.budget -= s.cost
	admitted := m.admitLocked()
	m.cond.Broadcast()
	m.mu.Unlock()

	for _, a := range admitted {
		// A factory or session failure marks the stream Stopped with the
		// error in its status; Register already returned nil long ago.
		_ = m.startStream(a)
	}
	return res, nil
}

// closeStream flushes the final partial window, converting a panic into
// an error for the supervisor.
func (m *Manager) closeStream(s *stream, ing *ingest.Ingestor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: stream %q: final flush panicked: %v", s.id, r)
		}
	}()
	var start timePoint
	if m.cfg.Now != nil {
		start = m.cfg.Now()
	}
	results := ing.Close()
	m.observe(s, results, start)
	m.mu.Lock()
	s.noteHistoryLocked(ing)
	for _, r := range results {
		s.windows++
		if r.Degraded {
			s.degraded++
		}
	}
	m.mu.Unlock()
	return nil
}

// inRecoverLocked reports whether s is queued for the supervisor.
func (s *stream) inRecoverLocked(m *Manager) bool {
	if s.state == Recovering {
		return true
	}
	for _, r := range m.recoverq {
		if r == s {
			return true
		}
	}
	return false
}

// dropWaitingLocked removes s from the admission queue.
func (m *Manager) dropWaitingLocked(s *stream) {
	for i, w := range m.waiting {
		if w == s {
			m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
			return
		}
	}
}

// admitLocked pulls Pending streams into the budget, FIFO, stopping at
// the first that does not fit (admission stays ordered). It returns the
// admitted streams; the caller must start them outside the lock.
func (m *Manager) admitLocked() []*stream {
	var admitted []*stream
	for len(m.waiting) > 0 {
		s := m.waiting[0]
		if m.cfg.WindowBudget > 0 && m.budget+s.cost > m.cfg.WindowBudget {
			break
		}
		m.waiting = m.waiting[1:]
		m.budget += s.cost
		admitted = append(admitted, s)
	}
	return admitted
}

// Snapshot reports every registered stream's health in registration
// order. It is safe to call at any time, concurrently with pushes and
// in-flight processing: it reads only manager-guarded counters plus the
// ingest accessors documented safe for concurrent use (the quarantine
// ledger and the resilient device's counters).
func (m *Manager) Snapshot() []StreamStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StreamStatus, 0, len(m.order))
	for _, id := range m.order {
		s := m.streams[id]
		st := StreamStatus{
			ID:              s.id,
			State:           s.state,
			Frames:          s.frames,
			Queued:          len(s.queue) + s.turnLeft,
			Windows:         s.windows,
			DegradedWindows: s.degraded,
			Restarts:        s.restarts,
			HistoryHot:      s.histHot,
			HistoryCold:     s.histCold,
			HistoryErr:      s.histErr,
		}
		if s.lastErr != nil {
			st.Err = s.lastErr.Error()
		}
		if s.ing != nil {
			st.Quarantined = s.ing.Quarantine().TotalRejected
			if rd := device.FindResilient(s.ing.Oracle().Device()); rd != nil {
				st.Breaker = rd.State().String()
			}
		}
		out = append(out, st)
	}
	return out
}

// AsOf serves a time-travel query against one stream's on-disk history:
// the merged-track view as of the cut "all windows committed by frame",
// reconstructed from the stream's segmented log (see ingest.AsOf for the
// cut semantics and the retention boundary of compacted logs). The
// reconstruction needs exclusive access to the stream's session, so AsOf
// waits for any in-flight turn to finish and blocks the next one while
// it reads — it is a control-plane query, not a hot-path one. Streams
// without history, quarantined beyond recovery, or never admitted fail
// with the corresponding error; a Stopped (finished) stream still
// serves its full history.
func (m *Manager) AsOf(id string, frame video.FrameIndex) (*trackdb.LiveView, video.FrameIndex, error) {
	m.mu.Lock()
	s, ok := m.streams[id]
	if !ok {
		m.mu.Unlock()
		return nil, 0, fmt.Errorf("serve: stream %q: %w", id, ErrUnknownStream)
	}
	for {
		switch {
		case m.closed:
			m.mu.Unlock()
			return nil, 0, ErrStopped
		case s.state == Pending:
			m.mu.Unlock()
			return nil, 0, fmt.Errorf("serve: stream %q: %w", id, ErrNotAdmitted)
		}
		if s.state == Quarantined && s.lastErr != nil && !s.inRecoverLocked(m) {
			err := s.lastErr
			m.mu.Unlock()
			return nil, 0, fmt.Errorf("serve: stream %q unrecoverable: %w", id, err)
		}
		if (s.state == Healthy || s.state == Degraded || s.state == Stopped) && !s.active && s.ing != nil {
			break
		}
		m.cond.Wait()
	}
	s.active = true
	ing := s.ing
	m.mu.Unlock()

	v, cut, err := ing.AsOf(frame)

	m.mu.Lock()
	s.active = false
	m.scheduleLocked(s) // a worker may have skipped the stream while we held it
	m.cond.Broadcast()
	m.mu.Unlock()
	return v, cut, err
}

// Drain performs a graceful drain-to-checkpoint shutdown: intake is
// closed (Push and Register fail with ErrDraining, and pushes blocked on
// backpressure unblock with it), every queued frame of every admitted
// stream flushes through the worker pool's in-flight windows, pending
// crash recoveries complete, and then one final checkpoint is sealed
// per live stream at a frame boundary. The manager is shut down before
// Drain returns.
//
// The returned map holds each drained stream's final checkpoint bytes by
// stream ID — the state a successor manager resumes from by registering
// the same spec with StreamSpec.Resume set. Drain does not invoke
// CheckpointSinks for these final seals; persisting the returned bytes
// is the caller's responsibility. Streams that are Pending (never
// admitted), Stopped (already finished), or terminally quarantined have
// no live session and produce no entry.
//
// When ctx expires before the flush completes, Drain stops waiting,
// lets in-flight turns finish (checkpoints are frame-boundary
// snapshots), seals checkpoints covering whatever had been processed,
// and returns the checkpoints alongside ctx's error; the still-queued
// frames are abandoned, exactly as a crash would abandon them — an
// at-least-once ingress replays them against the returned checkpoints.
func (m *Manager) Drain(ctx context.Context) (map[string][]byte, error) {
	m.mu.Lock()
	switch {
	case m.closed:
		m.mu.Unlock()
		return nil, ErrStopped
	case m.draining:
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.draining = true
	// A ctx that is already done aborts at once, even when nothing is
	// left to flush; one that expires later wakes the wait loop below.
	m.drainAbort = ctx.Err() != nil
	m.cond.Broadcast() // unblock backpressured pushes with ErrDraining
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.drainAbort = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	for !m.drainedLocked() && !m.drainAbort && !m.closed {
		m.cond.Wait()
	}
	aborted := m.drainAbort
	var firstErr error
	out := make(map[string][]byte, len(m.order))
	for _, id := range m.order {
		s := m.streams[id]
		if s.ing == nil || (s.state != Healthy && s.state != Degraded) {
			continue
		}
		// Even on an aborted drain a checkpoint must sit at a frame
		// boundary: wait out any in-flight turn (or Finish flush) first.
		// Turns are bounded (TurnFrames) and aborted drains stop new
		// dispatch, so this wait terminates.
		for s.active && !m.closed && (s.state == Healthy || s.state == Degraded) {
			m.cond.Wait()
		}
		if m.closed {
			break
		}
		if s.state != Healthy && s.state != Degraded {
			continue // crashed while we waited; no consistent boundary
		}
		s.active = true
		ing := s.ing
		m.mu.Unlock()
		data, err := sealDrainCheckpoint(s.id, ing)
		m.mu.Lock()
		s.active = false
		if err != nil {
			s.lastErr = err
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[id] = data
		s.ckpt = data
		s.replay = s.replay[:0]
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	m.Shutdown()
	if firstErr == nil && aborted {
		firstErr = ctx.Err()
	}
	return out, firstErr
}

// drainedLocked reports whether every admitted stream is idle with an
// empty queue and no recovery is pending — the point at which final
// checkpoints cover everything intake accepted.
func (m *Manager) drainedLocked() bool {
	if len(m.recoverq) > 0 {
		return false
	}
	for _, s := range m.streams {
		switch s.state {
		case Recovering:
			return false
		case Healthy, Degraded:
			if s.active || s.scheduled || len(s.queue) > 0 {
				return false
			}
		}
	}
	return true
}

// sealDrainCheckpoint seals one stream's final drain checkpoint,
// converting a panic into an error.
func sealDrainCheckpoint(id string, ing *ingest.Ingestor) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, fmt.Errorf("serve: stream %q: drain checkpoint panicked: %v", id, r)
		}
	}()
	data, err = ing.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("serve: stream %q: drain checkpoint: %w", id, err)
	}
	return data, nil
}

// Shutdown stops the worker pool and the supervisor and waits for them
// to exit. Shutdown abandons in-flight state: running turns complete,
// but queued frames of unfinished streams are dropped without
// processing, no final checkpoint is sealed, and nothing is flushed —
// frames accepted but not yet checkpointed are lost unless an
// at-least-once ingress replays them. Use Drain for the graceful
// flush-then-checkpoint variant. Shutdown is idempotent.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}
