package ingress

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tmerge/tmerge/internal/checkpoint"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/video"
)

// SpecFunc builds the serve.StreamSpec for a registration: the embedding
// daemon decides pipelines, seeds, and ingestion parameters; the wire
// only carries the RegisterRequest knobs. The returned spec's ID and
// Resume fields are owned by the server (it sets the ID from the URL and
// installs any stored checkpoint); a CheckpointSink set on the spec is
// preserved and chained after the server's own.
type SpecFunc func(id string, req RegisterRequest) (serve.StreamSpec, error)

// ServerConfig parameterises a Server.
type ServerConfig struct {
	// Serve configures the underlying serve.Manager. Set Shed to surface
	// full queues as 429s; without it pushes block the request until
	// queue room frees (backpressure by connection).
	Serve serve.Config
	// Spec builds each registered stream's pipeline spec. Required.
	Spec SpecFunc
	// Store persists checkpoints across incarnations; nil defaults to an
	// in-memory store (no crash durability).
	Store Store
	// RetryAfter is the retry hint attached to 429/503 responses; 0
	// defaults to 50ms.
	RetryAfter time.Duration
	// MaxLineBytes bounds one NDJSON push line; 0 defaults to
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// MaxBodyBytes bounds one push request body; 0 defaults to 8 MiB.
	MaxBodyBytes int64
}

// sstream is the server's per-stream ingress state. The mutex serialises
// pushes (and finish) for the stream, preserving record order end to
// end; the dedup marks are atomics so status and checkpoint sinks read
// them without waiting behind a blocked push.
type sstream struct {
	mu  sync.Mutex
	req RegisterRequest

	hwm     atomic.Int64 // sequence high-water mark, -1 initially
	next    atomic.Int64 // frame cursor: first frame index not yet settled
	durable atomic.Int64 // cursor covered by the last stored checkpoint, -1 initially
	dups    atomic.Int64 // cumulative discarded records

	resumed bool
	fin     *FinishResponse // cached once finished (idempotent Finish)
}

// Server terminates the ingress protocol over an embedded serve.Manager.
// Construct with NewServer, mount Handler on an http.Server, and call
// Drain (graceful, checkpoint-sealing) or Shutdown (abandon in-flight)
// exactly once.
type Server struct {
	cfg   ServerConfig
	mgr   *serve.Manager
	store Store

	mu       sync.Mutex
	streams  map[string]*sstream
	draining atomic.Bool
}

// NewServer builds the manager and the ingress state around it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("ingress: ServerConfig.Spec is required")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	return &Server{
		cfg:     cfg,
		mgr:     serve.NewManager(cfg.Serve),
		store:   cfg.Store,
		streams: make(map[string]*sstream),
	}, nil
}

// Handler returns the protocol's route table. Endpoints:
//
//	POST /v1/streams/{id}         register (idempotent; resumes from the store)
//	POST /v1/streams/{id}/frames  NDJSON push batch
//	POST /v1/streams/{id}/finish  close + fingerprint (idempotent)
//	GET  /v1/streams/{id}         one stream's status
//	GET  /v1/status               daemon-wide status
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/streams/{id}", s.handleRegister)
	mux.HandleFunc("POST /v1/streams/{id}/frames", s.handlePush)
	mux.HandleFunc("POST /v1/streams/{id}/finish", s.handleFinish)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamStatus)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

// Drain gracefully drains the manager (see serve.Manager.Drain) and
// persists every final checkpoint into the store, so a successor server
// over the same store resumes each stream exactly where the flush
// stopped. Push and Register fail with CodeDraining from the moment it
// starts; the server is shut down when it returns.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	ckpts, err := s.mgr.Drain(ctx)
	for id, data := range ckpts {
		if perr := s.store.Put(id, data); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// Shutdown stops the manager without flushing (see serve.Manager.Shutdown).
func (s *Server) Shutdown() { s.mgr.Shutdown() }

// stream returns the registered stream's ingress state, or nil.
func (s *Server) stream(id string) *sstream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req RegisterRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "register body: "+err.Error(), 0)
			return
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.streams[id]; st != nil {
		// Idempotent re-registration: the same parameters re-attach to
		// the live stream (a client retrying a lost response, or
		// reattaching after a network fault); different parameters are a
		// conflict, and a finished stream stays finished.
		if st.fin != nil {
			writeError(w, http.StatusConflict, CodeStreamClosed, fmt.Sprintf("stream %q already finished", id), 0)
			return
		}
		if st.req != req {
			writeError(w, http.StatusConflict, CodeMismatch,
				fmt.Sprintf("stream %q already registered with different parameters", id), 0)
			return
		}
		writeJSON(w, http.StatusOK, RegisterResponse{
			Stream: id, NextFrame: st.next.Load(), AckedSeq: st.hwm.Load(), Resumed: st.resumed,
		})
		return
	}

	spec, err := s.cfg.Spec(id, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	spec.ID = id

	st := &sstream{req: req}
	st.hwm.Store(-1)
	st.durable.Store(-1)
	if data, ok, gerr := s.store.Get(id); gerr != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, gerr.Error(), 0)
		return
	} else if ok {
		next, perr := peekNextFrame(data)
		if perr != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("stored checkpoint for %q unreadable: %v", id, perr), 0)
			return
		}
		spec.Resume = data
		st.resumed = true
		st.next.Store(int64(next))
		st.durable.Store(int64(next))
	}
	spec.Ingest.CheckpointSink = s.chainSink(id, st, spec.Ingest.CheckpointSink)

	if err := s.mgr.Register(spec); err != nil {
		s.writeServeError(w, err)
		return
	}
	s.streams[id] = st
	writeJSON(w, http.StatusOK, RegisterResponse{
		Stream: id, NextFrame: st.next.Load(), AckedSeq: -1, Resumed: st.resumed,
	})
}

// chainSink wraps a spec's checkpoint sink: every periodic checkpoint is
// stored (crash durability) and advances the stream's durable mark
// before the original sink, if any, runs. The mark comes from
// ingest.CheckpointNextFrame, an unverified scan: the bytes were sealed
// by the session a moment ago, so a checksum and a full decode would
// only repeat its work. It is called from worker goroutines mid-push
// and must not take the server or stream mutexes.
func (s *Server) chainSink(id string, st *sstream, user func([]byte) error) func([]byte) error {
	return func(data []byte) error {
		if err := s.store.Put(id, data); err != nil {
			return fmt.Errorf("ingress: store checkpoint for %q: %w", id, err)
		}
		if next, err := ingest.CheckpointNextFrame(data); err == nil {
			st.durable.Store(int64(next))
		}
		if user != nil {
			return user(data)
		}
		return nil
	}
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.stream(id)
	if st == nil {
		writeError(w, http.StatusNotFound, CodeUnknownStream, fmt.Sprintf("stream %q not registered", id), 0)
		return
	}
	recs, err := DecodePushBatch(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), s.cfg.MaxLineBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fin != nil {
		writeError(w, http.StatusConflict, CodeStreamClosed, fmt.Sprintf("stream %q already finished", id), 0)
		return
	}
	dupes := 0
	for _, rec := range recs {
		// The dedup invariant: a record is applied iff its sequence is
		// above the high-water mark AND its frame is at the cursor or
		// beyond; anything else was already settled by an earlier
		// delivery (or by the checkpoint this incarnation resumed from)
		// and is discarded idempotently, advancing the mark so the
		// client stops resending it.
		if rec.Seq <= st.hwm.Load() || int64(rec.Frame) < st.next.Load() {
			dupes++
			if rec.Seq > st.hwm.Load() {
				st.hwm.Store(rec.Seq)
			}
			continue
		}
		if err := s.mgr.Push(id, rec.Frame, rec.Dets); err != nil {
			st.dups.Add(int64(dupes))
			s.writeServeError(w, err)
			return
		}
		st.hwm.Store(rec.Seq)
		st.next.Store(int64(rec.Frame) + 1)
	}
	st.dups.Add(int64(dupes))
	writeJSON(w, http.StatusOK, PushResponse{
		AckedSeq:     st.hwm.Load(),
		NextFrame:    st.next.Load(),
		DurableFrame: st.durable.Load(),
		Duplicates:   dupes,
	})
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.stream(id)
	if st == nil {
		writeError(w, http.StatusNotFound, CodeUnknownStream, fmt.Sprintf("stream %q not registered", id), 0)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fin != nil {
		writeJSON(w, http.StatusOK, *st.fin)
		return
	}
	res, err := s.mgr.Finish(id)
	if err != nil {
		s.writeServeError(w, err)
		return
	}
	st.fin = &FinishResponse{
		Stream:          id,
		Fingerprint:     res.Fingerprint(),
		Frames:          res.FramesProcessed,
		Windows:         len(res.Windows),
		DegradedWindows: res.DegradedWindows,
	}
	// The stream is complete; its checkpoint would only confuse a future
	// registration under the same ID.
	_ = s.store.Delete(id)
	writeJSON(w, http.StatusOK, *st.fin)
}

// Status returns the daemon-wide status document — the same view GET
// /v1/status serves, for in-process consumers such as the daemon's
// status ticker.
func (s *Server) Status() StatusResponse {
	return StatusResponse{
		Draining: s.draining.Load(),
		Streams:  s.statusRows(""),
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rows := s.statusRows(id)
	if len(rows) == 0 {
		writeError(w, http.StatusNotFound, CodeUnknownStream, fmt.Sprintf("stream %q not registered", id), 0)
		return
	}
	writeJSON(w, http.StatusOK, rows[0])
}

// statusRows joins the serve-layer snapshot with the ingress dedup
// marks; a non-empty id filters to that stream.
func (s *Server) statusRows(id string) []StreamStatus {
	snap := s.mgr.Snapshot()
	out := make([]StreamStatus, 0, len(snap))
	for _, row := range snap {
		if id != "" && row.ID != id {
			continue
		}
		r := StreamStatus{
			ID:              row.ID,
			State:           row.State.String(),
			Frames:          row.Frames,
			Queued:          row.Queued,
			Windows:         row.Windows,
			DegradedWindows: row.DegradedWindows,
			Restarts:        row.Restarts,
			Quarantined:     row.Quarantined,
			Breaker:         row.Breaker,
			Err:             row.Err,
			AckedSeq:        -1,
		}
		if st := s.stream(row.ID); st != nil {
			r.AckedSeq = st.hwm.Load()
			r.Duplicates = st.dups.Load()
		}
		out = append(out, r)
	}
	return out
}

// writeServeError maps the serve layer's typed errors onto the protocol:
// backpressure and admission become retryable statuses with hints, state
// conflicts become 4xx, anything unrecognised is a 500.
func (s *Server) writeServeError(w http.ResponseWriter, err error) {
	hint := s.cfg.RetryAfter.Milliseconds()
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, err.Error(), hint)
	case errors.Is(err, serve.ErrNotAdmitted):
		writeError(w, http.StatusServiceUnavailable, CodeAdmission, err.Error(), hint)
	case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStopped):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error(), hint)
	case errors.Is(err, serve.ErrStreamClosed), errors.Is(err, serve.ErrDuplicateStream):
		writeError(w, http.StatusConflict, CodeStreamClosed, err.Error(), 0)
	case errors.Is(err, serve.ErrUnknownStream):
		writeError(w, http.StatusNotFound, CodeUnknownStream, err.Error(), 0)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	}
}

// writeError emits the typed JSON error body, with a Retry-After header
// (whole seconds, rounded up, as HTTP requires) mirroring the
// millisecond hint in the body when one is set.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfterMS int64) {
	if retryAfterMS > 0 {
		secs := (retryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, ErrorBody{Code: code, Error: msg, RetryAfterMS: retryAfterMS})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// peekNextFrame opens a stored checkpoint, verifying its envelope and
// checksum and decoding its payload, for the one field registration
// needs: the frame cursor (the payload's top-level next_frame). A store
// can hold corrupt bytes, and registration refuses them here, before a
// session is built on them.
func peekNextFrame(data []byte) (video.FrameIndex, error) {
	var p struct {
		NextFrame video.FrameIndex `json:"next_frame"`
	}
	if err := checkpoint.Open(data, &p); err != nil {
		return 0, err
	}
	return p.NextFrame, nil
}
