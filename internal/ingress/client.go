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

// registerLocked runs the registration through the retry loop and
// applies the server's resume point to the client marks.
func (c *Client) registerLocked(ctx context.Context) (RegisterResponse, error) {
	body, err := json.Marshal(c.regReq)
	if err != nil {
		return RegisterResponse{}, fmt.Errorf("ingress: register %s: %w", c.cfg.Stream, err)
	}
	var rr RegisterResponse
	err = c.do(ctx, operation{
		name: "register", path: "/v1/streams/" + c.cfg.Stream, timeout: c.cfg.RequestTimeout,
		body: func() ([]byte, error) { return body, nil },
		ok: func(resp []byte) (bool, error) {
			if err := c.decode("register", resp, &rr); err != nil {
				return true, err
			}
			// A fresh incarnation acks nothing (AckedSeq -1): everything
			// still buffered must be resent, minus frames its checkpoint
			// already covers.
			if rr.AckedSeq < c.acked {
				c.acked = rr.AckedSeq
			}
			c.serverNext = rr.NextFrame
			c.dropBelowFrame(rr.NextFrame)
			return true, nil
		},
	})
	if err != nil {
		return RegisterResponse{}, err
	}
	return rr, nil
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
	if len(c.pending()) < c.cfg.BatchFrames {
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
	var fr FinishResponse
	err := c.do(ctx, operation{
		name: "finish", path: "/v1/streams/" + c.cfg.Stream + "/finish", timeout: c.cfg.FinishTimeout, reattach: true,
		body: func() ([]byte, error) { return nil, c.flushLocked(ctx) },
		ok:   func(resp []byte) (bool, error) { return true, c.decode("finish", resp, &fr) },
	})
	if err != nil {
		return FinishResponse{}, err
	}
	return fr, nil
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

// flushLocked runs the push through the retry loop until nothing is
// pending: every attempt resends the whole pending window (dedup
// absorbs the overlap), and every exit path leaves the buffer
// consistent with the server's marks.
func (c *Client) flushLocked(ctx context.Context) error {
	return c.do(ctx, operation{
		name: "push", path: "/v1/streams/" + c.cfg.Stream + "/frames", timeout: c.cfg.RequestTimeout, reattach: true,
		done: func() bool { return len(c.pending()) == 0 },
		body: func() ([]byte, error) {
			pending := c.pending()
			var body bytes.Buffer
			if err := EncodePushBatch(&body, pending); err != nil {
				return nil, err
			}
			c.stats.RecordsSent += int64(len(pending))
			return body.Bytes(), nil
		},
		ok: func(resp []byte) (bool, error) {
			var pr PushResponse
			if err := c.decode("push", resp, &pr); err != nil {
				return true, err
			}
			c.applyAck(pr)
			return false, nil
		},
	})
}

// operation is one logical client operation (a registration, a flush, a
// finish) as the retry loop drives it.
type operation struct {
	name    string // "register", "push" or "finish", for errors
	path    string
	timeout time.Duration
	// reattach makes a 404 re-register (the daemon restarted and forgot
	// the stream) and retry.
	reattach bool
	// done, when set, reports before each attempt that nothing is left
	// to send.
	done func() bool
	// body builds each attempt's request body.
	body func() ([]byte, error)
	// ok consumes a 200 response; it reports whether the operation is
	// complete or needs another attempt.
	ok func(resp []byte) (bool, error)
}

// do is the client's one retry loop, holding the whole retry policy:
// every attempt first checks ctx; a transport failure or timeout backs
// off on the seeded schedule and resends; 429/503 waits the server's
// hint; 404 re-registers when the operation allows it; any other status
// fails. Every attempt, 200s included, spends one of MaxAttempts.
func (c *Client) do(ctx context.Context, op operation) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if op.done != nil && op.done() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("ingress: %s %s: %w", op.name, c.cfg.Stream, err)
		}
		body, err := op.body()
		if err != nil {
			return err
		}
		status, hdr, resp, err := c.attempt(ctx, "POST", op.path, body, op.timeout)
		switch {
		case err != nil:
			c.stats.Retries++
			lastErr = err
			c.sleep(c.backoff(attempt))
		case status == http.StatusOK:
			if complete, err := op.ok(resp); complete || err != nil {
				return err
			}
		case status == http.StatusNotFound && op.reattach:
			c.stats.Reattaches++
			if _, err := c.registerLocked(ctx); err != nil {
				return err
			}
		case status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
			c.stats.Throttled++
			lastErr = errBodyErr(op.name, c.cfg.Stream, status, resp)
			c.sleep(c.retryAfter(hdr, resp, attempt))
		default:
			return errBodyErr(op.name, c.cfg.Stream, status, resp)
		}
	}
	return fmt.Errorf("ingress: %s %s: %d attempts exhausted: %w", op.name, c.cfg.Stream, c.cfg.MaxAttempts, lastErr)
}

// decode parses a 200 response body into v.
func (c *Client) decode(op string, resp []byte, v any) error {
	if err := json.Unmarshal(resp, v); err != nil {
		return fmt.Errorf("ingress: %s %s: bad response: %w", op, c.cfg.Stream, err)
	}
	return nil
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
