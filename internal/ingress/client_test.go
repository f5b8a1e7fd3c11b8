package ingress

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/tmerge/tmerge/internal/video"
)

// newTestClient builds a client with a recording fake sleeper, so
// backoff schedules are observable without waiting them out.
func newTestClient(t *testing.T, base string, seed uint64, slept *[]time.Duration) *Client {
	t.Helper()
	var mu sync.Mutex
	c, err := NewClient(ClientConfig{
		BaseURL: base, Stream: "s", Seed: seed,
		RequestTimeout: 2 * time.Second,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     160 * time.Millisecond,
		MaxAttempts:    8,
		Sleep: func(d time.Duration) {
			mu.Lock()
			*slept = append(*slept, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBackoffDeterministic pins the jitter contract: the schedule is a
// pure function of the seed — two clients with the same seed produce
// identical delays, a different seed diverges, and every delay lies in
// [d/2, d] for the attempt's exponential cap.
func TestBackoffDeterministic(t *testing.T) {
	var s1, s2, s3 []time.Duration
	a := newTestClient(t, "http://x", 7, &s1)
	b := newTestClient(t, "http://x", 7, &s2)
	c := newTestClient(t, "http://x", 8, &s3)

	base, max := 10*time.Millisecond, 160*time.Millisecond
	var da, db, dc []time.Duration
	for attempt := 0; attempt < 10; attempt++ {
		da = append(da, a.backoff(attempt))
		db = append(db, b.backoff(attempt))
		dc = append(dc, c.backoff(attempt))
	}
	diverged := false
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da[i], db[i])
		}
		if da[i] != dc[i] {
			diverged = true
		}
		cap := base << min(i, 20)
		if cap > max {
			cap = max
		}
		if da[i] < cap/2 || da[i] > cap {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, da[i], cap/2, cap)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestRetryAfterPrecedence pins the override order for throttled
// responses: the JSON body's millisecond hint beats the Retry-After
// header, which beats the backoff schedule.
func TestRetryAfterPrecedence(t *testing.T) {
	var slept []time.Duration
	c := newTestClient(t, "http://x", 1, &slept)

	hdr := http.Header{}
	hdr.Set("Retry-After", "3")
	if d := c.retryAfter(hdr, []byte(`{"code":"overloaded","retry_after_ms":25}`), 0); d != 25*time.Millisecond {
		t.Fatalf("body hint: got %v, want 25ms", d)
	}
	if d := c.retryAfter(hdr, []byte(`{"code":"overloaded"}`), 0); d != 3*time.Second {
		t.Fatalf("header fallback: got %v, want 3s", d)
	}
	if d := c.retryAfter(http.Header{}, []byte("{}"), 0); d < 5*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("backoff fallback: got %v, want within [5ms, 10ms]", d)
	}
	if d, ok := ParseRetryAfterHeader("Wed, 21 Oct 2015 07:28:00 GMT"); ok {
		t.Fatalf("HTTP-date form should be rejected, got %v", d)
	}
}

// TestClientHonorsThrottleSchedule scripts a server that throttles the
// first pushes with explicit millisecond hints and checks the client
// sleeps exactly those hints — the deterministic Retry-After unit test.
func TestClientHonorsThrottleSchedule(t *testing.T) {
	hints := []int64{7, 13, 29}
	var calls int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/streams/s" {
			writeJSON(w, 200, RegisterResponse{Stream: "s", AckedSeq: -1})
			return
		}
		mu.Lock()
		n := calls
		calls++
		mu.Unlock()
		if n < len(hints) {
			writeError(w, http.StatusTooManyRequests, CodeOverloaded, "full", hints[n])
			return
		}
		recs, err := DecodePushBatch(r.Body, 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
			return
		}
		writeJSON(w, 200, PushResponse{
			AckedSeq:     recs[len(recs)-1].Seq,
			NextFrame:    int64(recs[len(recs)-1].Frame) + 1,
			DurableFrame: -1,
		})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(t, srv.URL, 3, &slept)
	if _, err := c.Register(context.Background(), RegisterRequest{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{7 * time.Millisecond, 13 * time.Millisecond, 29 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d: got %v, want %v", i, slept[i], want[i])
		}
	}
	st := c.Stats()
	if st.Throttled != 3 {
		t.Fatalf("throttled = %d, want 3", st.Throttled)
	}
	if st.Retries != 0 {
		t.Fatalf("retries = %d, want 0 (throttles are not transport failures)", st.Retries)
	}
}

// TestClientResendsOnTimeout scripts a server whose first push attempt
// stalls past the request deadline; the client must retry the same
// record (observable as a duplicate-free second delivery, since the
// first never reached a decode).
func TestClientResendsOnTimeout(t *testing.T) {
	var mu sync.Mutex
	attempt := 0
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/streams/s" {
			writeJSON(w, 200, RegisterResponse{Stream: "s", AckedSeq: -1})
			return
		}
		mu.Lock()
		n := attempt
		attempt++
		mu.Unlock()
		if n == 0 {
			<-block // hold the first attempt past the client deadline
			return
		}
		recs, err := DecodePushBatch(r.Body, 0)
		if err != nil || len(recs) == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad batch", 0)
			return
		}
		writeJSON(w, 200, PushResponse{
			AckedSeq:     recs[len(recs)-1].Seq,
			NextFrame:    int64(recs[len(recs)-1].Frame) + 1,
			DurableFrame: -1,
		})
	}))
	defer srv.Close()
	defer close(block)

	var slept []time.Duration
	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, Stream: "s", Seed: 5,
		RequestTimeout: 50 * time.Millisecond,
		BackoffBase:    time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(context.Background(), RegisterRequest{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(context.Background(), 0, nil); err != nil {
		t.Fatalf("push: %v", err)
	}
	st := c.Stats()
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (first attempt timed out)", st.Retries)
	}
	if st.RecordsSent < 2 {
		t.Fatalf("records sent = %d, want >= 2 (resend)", st.RecordsSent)
	}
}

// TestFlushLastAttemptAckedInFull scripts a flush that spends its whole
// budget: MaxAttempts 2, a 404 that makes the client re-register, then a
// 200 acknowledging every record. The final 200 delivered everything, so
// Flush must succeed rather than report the attempts exhausted.
func TestFlushLastAttemptAckedInFull(t *testing.T) {
	var mu sync.Mutex
	pushes := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/streams/s" {
			writeJSON(w, 200, RegisterResponse{Stream: "s", AckedSeq: -1})
			return
		}
		mu.Lock()
		n := pushes
		pushes++
		mu.Unlock()
		if n == 0 {
			writeError(w, http.StatusNotFound, CodeUnknownStream, "unknown stream", 0)
			return
		}
		recs, err := DecodePushBatch(r.Body, 0)
		if err != nil || len(recs) == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad batch", 0)
			return
		}
		writeJSON(w, 200, PushResponse{
			AckedSeq:     recs[len(recs)-1].Seq,
			NextFrame:    int64(recs[len(recs)-1].Frame) + 1,
			DurableFrame: -1,
		})
	}))
	defer srv.Close()

	c, err := NewClient(ClientConfig{
		BaseURL: srv.URL, Stream: "s", Seed: 9,
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    2,
		BatchFrames:    8,
		Sleep:          func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Register(ctx, RegisterRequest{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		if err := c.Push(ctx, video.FrameIndex(f), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := c.Stats(); st.Reattaches != 1 {
		t.Fatalf("reattaches = %d, want 1", st.Reattaches)
	}
	if pushes != 2 {
		t.Fatalf("push requests = %d, want 2", pushes)
	}
}
