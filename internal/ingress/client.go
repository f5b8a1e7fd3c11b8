package ingress

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

// ClientConfig parameterises a Client. One client feeds one stream.
type ClientConfig struct {
	// BaseURL is the daemon (or proxy) endpoint, e.g. "http://127.0.0.1:7171".
	BaseURL string
	// Stream is the stream ID this client feeds.
	Stream string
	// HTTPClient overrides the transport; nil uses a fresh http.Client.
	HTTPClient *http.Client
	// RequestTimeout is the per-attempt deadline for register/push/status
	// requests; 0 defaults to 2s. A request that outlives it is abandoned
	// and retried — the server-side dedup makes the resend safe.
	RequestTimeout time.Duration
	// FinishTimeout is the per-attempt deadline for finish, which blocks
	// server-side until the stream's queue flushes; 0 defaults to 60s.
	FinishTimeout time.Duration
	// MaxAttempts bounds retries per logical operation (a flush, a
	// registration, a finish); 0 defaults to 16.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff schedule
	// (base*2^attempt, capped); defaults 10ms and 1s. A server Retry-After
	// hint overrides the computed delay for that wait.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed keys the deterministic backoff jitter (half the delay is
	// jittered, so independent clients desynchronise without a global
	// clock or shared randomness).
	Seed uint64
	// BatchFrames accumulates this many unacknowledged frames before a
	// push request is sent; 0/1 sends on every Push. Flush forces a send.
	BatchFrames int
	// Sleep is injected for tests; nil defaults to time.Sleep.
	Sleep func(time.Duration)
}

// ClientStats counts the client's observable retry behaviour — what the
// network soak asserts on (a passing soak must have actually retried).
type ClientStats struct {
	// Requests counts HTTP attempts, Retries the transport failures and
	// timeouts that forced a resend, Throttled the 429/503 waits
	// honored, Reattaches the 404-triggered re-registrations after a
	// daemon restart.
	Requests   int64
	Retries    int64
	Throttled  int64
	Reattaches int64
	// RecordsSent counts push records put on the wire (resends
	// included); DuplicatesAcked sums the server-reported duplicate
	// discards — nonzero exactly when at-least-once delivery actually
	// re-delivered.
	RecordsSent     int64
	DuplicatesAcked int64
}

// Client speaks the ingress protocol for one stream: it assigns
// sequence numbers, buffers frames until the server reports them
// durable, resends on timeout or connection failure, honors Retry-After
// on 429/503, and transparently re-registers and replays after a daemon
// restart (404). Every network-touching method takes a ctx: per-attempt
// deadlines are derived from it and the retry loops stop at its
// cancellation. Not safe for concurrent use; feed one stream from one
// goroutine, which is what frame order means anyway.
type Client struct {
	cfg   ClientConfig
	hc    *http.Client
	rng   *xrand.RNG
	sleep func(time.Duration)

	mu         sync.Mutex
	regReq     RegisterRequest
	registered bool
	seq        int64
	buf        []PushRecord // not-yet-durable records, ascending seq and frame
	acked      int64        // server's sequence high-water mark
	serverNext int64        // server's frame cursor
	stats      ClientStats
}

// NewClient validates cfg and returns a client; Register must be called
// before Push.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("ingress: ClientConfig.BaseURL is required")
	}
	if cfg.Stream == "" {
		return nil, fmt.Errorf("ingress: ClientConfig.Stream is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.FinishTimeout <= 0 {
		cfg.FinishTimeout = 60 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 16
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.BatchFrames <= 0 {
		cfg.BatchFrames = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		// Transport-level backstop: the per-request ctx deadlines are the
		// real control, but a zero-Timeout client could still hang on a
		// pathological transport. Finish is the longest-lived request.
		hc = &http.Client{Timeout: cfg.FinishTimeout + cfg.RequestTimeout}
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Client{
		cfg:   cfg,
		hc:    hc,
		rng:   xrand.Derive(cfg.Seed, "ingress-client-"+cfg.Stream),
		sleep: sleep,
		acked: -1,
	}, nil
}

// Stats returns a snapshot of the retry counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Register opens (or re-attaches to) the stream, retrying transport
// failures and 503s until ctx is cancelled or attempts run out. The
// request is remembered for automatic re-registration after a daemon
// restart.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.regReq = req
	resp, err := c.registerLocked(ctx)
	if err == nil {
		c.registered = true
	}
	return resp, err
}

// registerLocked performs the registration retry loop and applies the
// server's resume point to the client marks.
func (c *Client) registerLocked(ctx context.Context) (RegisterResponse, error) {
	body, err := json.Marshal(c.regReq)
	if err != nil {
		return RegisterResponse{}, fmt.Errorf("ingress: register %s: %w", c.cfg.Stream, err)
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return RegisterResponse{}, fmt.Errorf("ingress: register %s: %w", c.cfg.Stream, err)
		}
		status, hdr, respBody, err := c.attempt(ctx, "POST", "/v1/streams/"+c.cfg.Stream, body, c.cfg.RequestTimeout)
		if err != nil {
			c.stats.Retries++
			lastErr = err
			c.sleep(c.backoff(attempt))
			continue
		}
		switch status {
		case http.StatusOK:
			var rr RegisterResponse
			if err := json.Unmarshal(respBody, &rr); err != nil {
				return RegisterResponse{}, fmt.Errorf("ingress: register %s: bad response: %w", c.cfg.Stream, err)
			}
			// A fresh incarnation acks nothing (AckedSeq -1): everything
			// still buffered must be resent, minus frames its checkpoint
			// already covers.
			if rr.AckedSeq < c.acked {
				c.acked = rr.AckedSeq
			}
			c.serverNext = rr.NextFrame
			c.dropBelowFrame(rr.NextFrame)
			return rr, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			c.stats.Throttled++
			lastErr = errBodyErr("register", c.cfg.Stream, status, respBody)
			c.sleep(c.retryAfter(hdr, respBody, attempt))
		default:
			return RegisterResponse{}, errBodyErr("register", c.cfg.Stream, status, respBody)
		}
	}
	return RegisterResponse{}, fmt.Errorf("ingress: register %s: %d attempts exhausted: %w", c.cfg.Stream, c.cfg.MaxAttempts, lastErr)
}

// Push buffers one frame under the next sequence number and sends when
// the batch threshold is reached. Frames the server's resume point
// already covers are dropped locally — the checkpoint has them. The dets
// slice is retained until the frame is durable; the caller must not
// modify it.
func (c *Client) Push(ctx context.Context, frame video.FrameIndex, dets []video.BBox) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.registered {
		return fmt.Errorf("ingress: push %s: not registered", c.cfg.Stream)
	}
	if int64(frame) < c.serverNext && len(c.buf) == 0 {
		return nil // resumed past this frame; nothing to send
	}
	c.buf = append(c.buf, PushRecord{Seq: c.seq, Frame: frame, Dets: dets})
	c.seq++
	if c.pendingCount() < c.cfg.BatchFrames {
		return nil
	}
	return c.flushLocked(ctx)
}

// Flush sends every unacknowledged record, retrying until the server's
// high-water mark covers them (or attempts are exhausted). An ack means
// the records are queued on the server, not processed: a Status read
// right after Flush can still show them in Queued and not yet in
// Frames.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.registered {
		return fmt.Errorf("ingress: flush %s: not registered", c.cfg.Stream)
	}
	return c.flushLocked(ctx)
}

// Finish flushes, then closes the stream and returns its fingerprinted
// result. Finish is idempotent server-side, so a timed-out attempt is
// simply retried; after a daemon restart it re-registers and replays the
// buffer before closing.
func (c *Client) Finish(ctx context.Context) (FinishResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.registered {
		return FinishResponse{}, fmt.Errorf("ingress: finish %s: not registered", c.cfg.Stream)
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return FinishResponse{}, fmt.Errorf("ingress: finish %s: %w", c.cfg.Stream, err)
		}
		if err := c.flushLocked(ctx); err != nil {
			return FinishResponse{}, err
		}
		status, hdr, respBody, err := c.attempt(ctx, "POST", "/v1/streams/"+c.cfg.Stream+"/finish", nil, c.cfg.FinishTimeout)
		if err != nil {
			c.stats.Retries++
			lastErr = err
			c.sleep(c.backoff(attempt))
			continue
		}
		switch status {
		case http.StatusOK:
			var fr FinishResponse
			if err := json.Unmarshal(respBody, &fr); err != nil {
				return FinishResponse{}, fmt.Errorf("ingress: finish %s: bad response: %w", c.cfg.Stream, err)
			}
			return fr, nil
		case http.StatusNotFound:
			// Daemon restarted between flush and finish: reattach, replay,
			// and try again.
			c.stats.Reattaches++
			if _, err := c.registerLocked(ctx); err != nil {
				return FinishResponse{}, err
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			c.stats.Throttled++
			lastErr = errBodyErr("finish", c.cfg.Stream, status, respBody)
			c.sleep(c.retryAfter(hdr, respBody, attempt))
		default:
			return FinishResponse{}, errBodyErr("finish", c.cfg.Stream, status, respBody)
		}
	}
	return FinishResponse{}, fmt.Errorf("ingress: finish %s: %d attempts exhausted: %w", c.cfg.Stream, c.cfg.MaxAttempts, lastErr)
}

// Status fetches the stream's server-side status row (single attempt —
// monitoring, not delivery).
func (c *Client) Status(ctx context.Context) (StreamStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, _, body, err := c.attempt(ctx, "GET", "/v1/streams/"+c.cfg.Stream, nil, c.cfg.RequestTimeout)
	if err != nil {
		return StreamStatus{}, err
	}
	if status != http.StatusOK {
		return StreamStatus{}, errBodyErr("status", c.cfg.Stream, status, body)
	}
	var st StreamStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return StreamStatus{}, fmt.Errorf("ingress: status %s: bad response: %w", c.cfg.Stream, err)
	}
	return st, nil
}

// flushLocked drives the push retry loop until nothing is pending:
// transport failures back off and resend the whole pending window
// (dedup absorbs the overlap), 429/503 honor the server's hint, 404
// re-registers and replays. Every exit path leaves the buffer
// consistent with the server's marks.
func (c *Client) flushLocked(ctx context.Context) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		pending := c.pending()
		if len(pending) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("ingress: push %s: %w", c.cfg.Stream, err)
		}
		var body bytes.Buffer
		if err := EncodePushBatch(&body, pending); err != nil {
			return err
		}
		c.stats.RecordsSent += int64(len(pending))
		status, hdr, respBody, err := c.attempt(ctx, "POST", "/v1/streams/"+c.cfg.Stream+"/frames", body.Bytes(), c.cfg.RequestTimeout)
		if err != nil {
			c.stats.Retries++
			lastErr = err
			c.sleep(c.backoff(attempt))
			continue
		}
		switch status {
		case http.StatusOK:
			var pr PushResponse
			if err := json.Unmarshal(respBody, &pr); err != nil {
				return fmt.Errorf("ingress: push %s: bad response: %w", c.cfg.Stream, err)
			}
			c.applyAck(pr)
		case http.StatusNotFound:
			c.stats.Reattaches++
			if _, err := c.registerLocked(ctx); err != nil {
				return err
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			c.stats.Throttled++
			lastErr = errBodyErr("push", c.cfg.Stream, status, respBody)
			c.sleep(c.retryAfter(hdr, respBody, attempt))
		default:
			return errBodyErr("push", c.cfg.Stream, status, respBody)
		}
	}
	return fmt.Errorf("ingress: push %s: %d attempts exhausted: %w", c.cfg.Stream, c.cfg.MaxAttempts, lastErr)
}

// applyAck folds a push acknowledgement into the client marks: the
// high-water mark settles sent records, the durable mark trims the
// resend buffer.
func (c *Client) applyAck(pr PushResponse) {
	if pr.AckedSeq > c.acked {
		c.acked = pr.AckedSeq
	}
	c.serverNext = pr.NextFrame
	c.stats.DuplicatesAcked += int64(pr.Duplicates)
	if pr.DurableFrame >= 0 {
		c.dropBelowFrame(pr.DurableFrame)
	}
}

// dropBelowFrame trims buffered records whose frame a checkpoint
// already covers.
func (c *Client) dropBelowFrame(frame int64) {
	i := 0
	for i < len(c.buf) && int64(c.buf[i].Frame) < frame {
		i++
	}
	if i > 0 {
		c.buf = append(c.buf[:0], c.buf[i:]...)
	}
}

// pending returns the buffered records the server has not settled.
func (c *Client) pending() []PushRecord {
	i := 0
	for i < len(c.buf) && c.buf[i].Seq <= c.acked {
		i++
	}
	return c.buf[i:]
}

// pendingCount mirrors pending without slicing.
func (c *Client) pendingCount() int {
	n := 0
	for i := len(c.buf) - 1; i >= 0 && c.buf[i].Seq > c.acked; i-- {
		n++
	}
	return n
}

// attempt performs one HTTP exchange under a per-request deadline
// derived from the caller's ctx and returns the status with the
// (bounded) body. A transport error, a timeout, or a truncated body all
// come back as err — the retryable class.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, timeout time.Duration) (int, http.Header, []byte, error) {
	c.stats.Requests++
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("ingress: %s %s: %w", method, path, err)
	}
	if method == "POST" {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("ingress: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("ingress: %s %s: read response: %w", method, path, err)
	}
	return resp.StatusCode, resp.Header, b, nil
}

// backoff computes the attempt's delay: exponential from BackoffBase,
// capped at BackoffMax, with the upper half jittered by the seeded RNG —
// deterministic for a given seed and attempt sequence.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 0; i < attempt && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	return half + time.Duration(c.rng.Float64()*float64(half))
}

// retryAfter picks the wait for a throttled response: the body's
// millisecond hint wins (it is exact), else the Retry-After header
// (whole seconds, the HTTP-standard channel), else the attempt's
// backoff schedule.
func (c *Client) retryAfter(hdr http.Header, respBody []byte, attempt int) time.Duration {
	var eb ErrorBody
	if err := json.Unmarshal(respBody, &eb); err == nil && eb.RetryAfterMS > 0 {
		return time.Duration(eb.RetryAfterMS) * time.Millisecond
	}
	if hdr != nil {
		if d, ok := ParseRetryAfterHeader(hdr.Get("Retry-After")); ok && d > 0 {
			return d
		}
	}
	return c.backoff(attempt)
}

// errBodyErr renders a non-2xx response as an error, surfacing the typed
// code when the body carries one.
func errBodyErr(op, stream string, status int, body []byte) error {
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Code != "" {
		return fmt.Errorf("ingress: %s %s: HTTP %d (%s): %s", op, stream, status, eb.Code, eb.Error)
	}
	return fmt.Errorf("ingress: %s %s: HTTP %d: %s", op, stream, status, truncate(body, 200))
}

// truncate bounds an error body for display.
func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// ParseRetryAfterHeader parses an HTTP Retry-After header's
// delta-seconds form; ok is false for absent or non-numeric values
// (including the HTTP-date form, which a deterministic client cannot
// honor without a clock).
func ParseRetryAfterHeader(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
