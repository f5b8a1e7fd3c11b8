package serve

import (
	"fmt"
	"time"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/video"
)

// retireDevice closes the resilient device (if any) in a discarded
// pipeline's chain. Best-effort: chains without a ResilientDevice have
// no lifecycle to end.
func retireDevice(in *ingest.Ingestor) {
	if in == nil {
		return
	}
	if rd := device.FindResilient(in.Oracle().Device()); rd != nil {
		_ = rd.Close()
	}
}

// pushItem is one queued frame.
type pushItem struct {
	frame video.FrameIndex
	dets  []video.BBox
}

// stream is the manager's per-stream record. Every field below the spec
// block is guarded by Manager.mu; the ingestor itself is touched only
// by whichever goroutine holds the stream's active flag (a worker turn,
// the supervisor's recovery, or Finish's final flush), plus the
// concurrently-safe monitoring accessors Snapshot uses.
type stream struct {
	id       string
	spec     StreamSpec
	cfg      ingest.Config // spec.Ingest with the manager's checkpoint sink installed
	queueCap int
	cost     int // admission budget units

	state       Health
	queue       []pushItem
	turnLeft    int  // frames the active turn has dequeued but not yet pushed
	scheduled   bool // queued in Manager.ready
	active      bool // a goroutine is processing the stream
	inputClosed bool

	ing *ingest.Ingestor
	// ckpt is the latest sealed checkpoint; replay holds every frame
	// handed to the ingestor since ckpt was sealed (appended before the
	// push, truncated by the checkpoint sink), so ckpt+replay always
	// reconstructs the live session exactly.
	ckpt   []byte
	replay []pushItem

	lastErr    error
	restarts   int
	crashFired bool

	frames   int // frames the stream cursor has passed
	windows  int // committed windows
	degraded int // committed windows selected in degraded mode

	// Manager-guarded copies of the session's history accounting,
	// refreshed by whoever holds the active flag after committing
	// windows (the tiered view itself is not safe to read concurrently
	// with a turn, so Snapshot reports these copies instead).
	histHot  int
	histCold int
	histErr  string
}

// foldLocked is the only writer of the stream's frame and window
// counters, its Healthy/Degraded health and its history copies. It
// counts the windows ing committed past the stream's window counter —
// ing.Results() only grows, so the counter is a cursor into it — after
// zeroing the counters when ing is a session just built (fresh). Health
// follows the last committed window: one degraded window marks the
// stream Degraded until an oracle-backed window closes again. The
// history copies are refreshed only when windows were counted or the
// session is fresh (HistoryStats walks the hot tier). The caller must
// hold Manager.mu, and no other goroutine may be using ing.
func (s *stream) foldLocked(ing *ingest.Ingestor, fresh bool) {
	s.frames = ing.FramesSeen()
	res := ing.Results()
	if fresh {
		s.windows, s.degraded, s.state = 0, 0, Healthy
	} else if s.windows == len(res) {
		return
	}
	for _, r := range res[s.windows:] {
		if r.Degraded {
			s.degraded++
		}
	}
	s.windows = len(res)
	if len(res) > 0 {
		s.state = Healthy
		if res[len(res)-1].Degraded {
			s.state = Degraded
		}
	}
	s.histHot, s.histCold, _, _ = ing.HistoryStats()
	s.histErr = ""
	if err := ing.HistoryErr(); err != nil {
		s.histErr = err.Error()
	}
}

// worker is one shared-pool goroutine: pop the next ready stream, feed
// it a bounded turn of queued frames, requeue it behind every other
// ready stream if frames remain. Round-robin through the FIFO plus the
// TurnFrames bound is the fairness guarantee — a hot stream advances at
// most TurnFrames frames per pass through the queue.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return
		}
		if m.drainAbort {
			// An aborted drain wants quiescence, not progress: stop
			// dispatching turns so Drain can seal frame-boundary
			// checkpoints; Shutdown ends the wait.
			m.cond.Wait()
			continue
		}
		if len(m.ready) == 0 {
			m.cond.Wait()
			continue
		}
		s := m.ready[0]
		m.ready = m.ready[1:]
		s.scheduled = false
		if s.active || (s.state != Healthy && s.state != Degraded) || len(s.queue) == 0 {
			continue // quarantined, finished, or drained while waiting its turn
		}
		n := m.cfg.TurnFrames
		if n > len(s.queue) {
			n = len(s.queue)
		}
		batch := make([]pushItem, n)
		copy(batch, s.queue[:n])
		s.queue = append(s.queue[:0], s.queue[n:]...)
		s.active = true
		s.turnLeft = n
		m.cond.Broadcast() // queue room freed: wake blocked pushes
		m.mu.Unlock()

		rem, err := m.runTurn(s, batch)

		m.mu.Lock()
		s.active = false
		s.turnLeft = 0
		if err != nil {
			// Fault isolation: this stream is quarantined for the
			// supervisor; every other stream keeps flowing. Frames the
			// turn had dequeued but not yet handed to the ingestor go
			// back to the queue front; the frame that crashed is already
			// in the replay buffer and will be replayed.
			s.state = Quarantined
			s.lastErr = err
			if len(rem) > 0 {
				s.queue = append(append(make([]pushItem, 0, len(rem)+len(s.queue)), rem...), s.queue...)
			}
			m.recoverq = append(m.recoverq, s)
		} else {
			m.scheduleLocked(s)
		}
		m.cond.Broadcast()
	}
}

// runTurn feeds one dequeued batch to the stream's ingestor, frame by
// frame, maintaining the replay invariant (a frame enters the replay
// buffer before it enters the ingestor) and firing the injected crash
// when the spec scripts one. A panic — injected or real — is converted
// to an error along with the batch's unprocessed tail.
func (m *Manager) runTurn(s *stream, batch []pushItem) (rem []pushItem, err error) {
	i := 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: stream %q crashed at frame %d: %v", s.id, batch[i].frame, r)
			rem = batch[i+1:]
		}
	}()
	for ; i < len(batch); i++ {
		it := batch[i]
		m.mu.Lock()
		s.replay = append(s.replay, it)
		crash := s.spec.CrashAtFrame > 0 && !s.crashFired &&
			it.frame >= video.FrameIndex(s.spec.CrashAtFrame)
		if crash {
			s.crashFired = true
		}
		m.mu.Unlock()
		if crash {
			panic(fmt.Sprintf("injected crash before frame %d", it.frame))
		}
		m.step(s, func() []ingest.WindowResult { return s.ing.PushAt(it.frame, it.dets) })
		m.mu.Lock()
		s.turnLeft--
		s.foldLocked(s.ing, false)
		m.mu.Unlock()
	}
	return nil, nil
}

// step runs one session step (a frame push or the final flush) and
// reports the windows it closed to the configured observer with the
// step's wall latency.
func (m *Manager) step(s *stream, run func() []ingest.WindowResult) {
	var start time.Time
	if m.cfg.Now != nil {
		start = m.cfg.Now()
	}
	results := run()
	if m.cfg.OnWindow == nil || len(results) == 0 {
		return
	}
	var lat time.Duration
	if m.cfg.Now != nil {
		lat = m.cfg.Now().Sub(start)
	}
	for _, r := range results {
		m.cfg.OnWindow(s.id, r, lat)
	}
}

// supervisor is the crash-recovery goroutine: it takes quarantined
// streams, rebuilds their pipeline from the factory, restores the
// latest checkpoint, and replays the frames pushed since — bit-identical
// resumption, because the checkpoint restores the tracker, merger,
// oracle cache, fault-injection cursor, and virtual clock exactly, and
// the replayed frames then re-derive the exact state the stream had
// when it crashed (DESIGN.md §12 sketches the proof).
func (m *Manager) supervisor() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			return
		}
		if len(m.recoverq) == 0 {
			m.cond.Wait()
			continue
		}
		s := m.recoverq[0]
		m.recoverq = m.recoverq[1:]
		s.state = Recovering
		s.restarts++
		s.active = true
		old := s.ing
		ckpt := s.ckpt
		replay := append([]pushItem(nil), s.replay...)
		// The replay buffer is rebuilt while replaying (the checkpoint
		// sink may fire mid-replay and truncate it), preserving the
		// ckpt+replay invariant for a crash during or after recovery.
		s.replay = s.replay[:0]
		m.mu.Unlock()

		ing, err := m.rebuild(s, ckpt, replay)
		if err == nil {
			// The crashed pipeline is fully replaced: retire its device
			// chain so anything still holding it fails loudly rather than
			// silently advancing a clock nothing reads.
			retireDevice(old)
		}

		m.mu.Lock()
		s.active = false
		s.turnLeft = 0
		if err != nil {
			// Unrecoverable: stays quarantined with the error surfaced in
			// the snapshot; Finish reports it.
			s.state = Quarantined
			s.lastErr = err
			m.cond.Broadcast()
			continue
		}
		s.lastErr = nil
		m.installLocked(s, ing)
	}
}

// rebuild builds a stream's session on a fresh pipeline — the one path
// for admission, StreamSpec.Resume and crash recovery: restore ckpt
// (the spec's Resume bytes at admission, the latest sealed checkpoint in
// recovery) or start empty when there is none, then replay the frames
// pushed since. Replayed windows are not re-observed — they were already
// reported before the crash. A panic anywhere in it is an error.
func (m *Manager) rebuild(s *stream, ckpt []byte, replay []pushItem) (in *ingest.Ingestor, err error) {
	err = guard(s.id, "session build", func() (err error) {
		engine, oracle := s.spec.Pipeline()
		if len(ckpt) > 0 {
			in, err = ingest.Restore(engine, oracle, s.cfg, ckpt)
		} else {
			in, err = ingest.New(engine, oracle, s.cfg)
		}
		if err != nil {
			return err
		}
		for _, it := range replay {
			m.mu.Lock()
			s.replay = append(s.replay, it)
			m.mu.Unlock()
			in.PushAt(it.frame, it.dets)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// installLocked makes a freshly built session the stream's own: the
// counters and health are recounted from it and the stream is
// schedulable again. The caller must hold Manager.mu.
func (m *Manager) installLocked(s *stream, ing *ingest.Ingestor) {
	s.ing = ing
	s.foldLocked(ing, true)
	m.scheduleLocked(s)
	m.cond.Broadcast()
}

// guard runs one session operation and turns its failure into an error
// naming the stream and the operation — a panic included, so a fault in
// a session quarantines or fails that stream instead of the daemon.
func guard(id, op string, run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: stream %q: %s panicked: %v", id, op, r)
		}
	}()
	if err := run(); err != nil {
		return fmt.Errorf("serve: stream %q: %s: %w", id, op, err)
	}
	return nil
}
