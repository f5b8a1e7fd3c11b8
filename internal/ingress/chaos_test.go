package ingress

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/video"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNetworkChaosKillRestart is the tentpole proof: a loopback fleet
// pushes through a fault-injecting TCP proxy (dropped, stalled, and
// truncated connections), the daemon is killed mid-stream and a fresh
// incarnation resumes from the shared checkpoint store, and every
// stream's fingerprint still equals an uninterrupted sequential run.
// Along the way it pins the at-least-once machinery: transport retries
// actually happened, every client re-registered after the restart, and
// a deliberate duplicate resend is provably discarded by the sequence
// high-water mark.
func TestNetworkChaosKillRestart(t *testing.T) {
	const (
		nStreams  = 3
		nFrames   = 160
		windowLen = 20
		ckptEvery = 2
		half      = nFrames / 2
	)
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 79, Streams: nStreams, Frames: nFrames})
	if err != nil {
		t.Fatal(err)
	}

	serveCfg := func() serve.Config {
		return serve.Config{Workers: 2, DefaultQueueCap: 2 * nFrames}
	}
	store := NewMemStore()
	srvA, hsA := newTestServer(t, ServerConfig{Store: store, Serve: serveCfg()})

	proxy, err := fault.NewProxy("127.0.0.1:0", strings.TrimPrefix(hsA.URL, "http://"), fault.NetConfig{
		Seed:          97,
		DropRate:      0.12,
		StallRate:     0.08,
		StallFor:      5 * time.Millisecond,
		TruncateRate:  0.12,
		TruncateAfter: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Every request rides a fresh connection so every request rolls the
	// proxy's fault dice.
	transport := &http.Transport{DisableKeepAlives: true}
	defer transport.CloseIdleConnections()

	clients := make([]*Client, nStreams)
	for i, s := range streams {
		clients[i], err = NewClient(ClientConfig{
			BaseURL:        "http://" + proxy.Addr(),
			Stream:         s.ID,
			Seed:           s.Seed,
			HTTPClient:     &http.Client{Transport: transport},
			RequestTimeout: 500 * time.Millisecond,
			MaxAttempts:    64,
			BackoffBase:    2 * time.Millisecond,
			BackoffMax:     25 * time.Millisecond,
			BatchFrames:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		halfDone sync.WaitGroup
		resume   = make(chan struct{})
		statuses = make([]StreamStatus, nStreams)
		errs     = make([]error, nStreams)
	)
	halfDone.Add(nStreams)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, c := streams[i], clients[i]
			if _, err := c.Register(context.Background(), RegisterRequest{Seed: s.Seed, WindowLen: windowLen, CheckpointEvery: ckptEvery}); err != nil {
				errs[i] = fmt.Errorf("register: %w", err)
				halfDone.Done()
				return
			}
			for f := 0; f < half; f++ {
				if err := c.Push(context.Background(), video.FrameIndex(f), s.Video.Detections[f]); err != nil {
					errs[i] = fmt.Errorf("push %d: %w", f, err)
					halfDone.Done()
					return
				}
			}
			halfDone.Done()
			<-resume // the daemon dies and is replaced while we wait
			for f := half; f < nFrames; f++ {
				if err := c.Push(context.Background(), video.FrameIndex(f), s.Video.Detections[f]); err != nil {
					errs[i] = fmt.Errorf("push %d after restart: %w", f, err)
					return
				}
			}
			if err := c.Flush(context.Background()); err != nil {
				errs[i] = fmt.Errorf("final flush: %w", err)
			}
		}(i)
	}

	// Kill the daemon once every client has delivered its first half:
	// abandon in-flight work (Shutdown, not Drain — this is the crash
	// path) and take the listener down. Recovery must come from the
	// checkpoints the chained sink stored along the way.
	halfDone.Wait()
	srvA.Shutdown()
	hsA.CloseClientConnections()
	hsA.Close()

	// Stand up the successor over the same store, but leave the proxy
	// pointed at the corpse until at least one client has visibly
	// retried against it — the "retried push observed" soak guarantee.
	srvB, hsB := newTestServer(t, ServerConfig{Store: store, Serve: serveCfg()})
	defer hsB.Close()
	defer srvB.Shutdown()
	// Client stats are unreadable mid-flush (the client mutex is held for
	// the whole retry loop), so observe the dead-window hammering at the
	// proxy: every failed attempt is a fresh connection.
	base := proxy.Counters().Conns
	close(resume)
	waitFor(t, func() bool { return proxy.Counters().Conns >= base+3 }, "pushes against the dead daemon")
	proxy.SetBackend(strings.TrimPrefix(hsB.URL, "http://"))
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %s: %v", streams[i].ID, err)
		}
	}
	// A flush ack means queued, not processed: wait until each stream's
	// queue has drained before reading its cursor. Status is
	// single-attempt by contract (monitoring, not delivery), so a poll
	// that hits a proxy fault simply polls again.
	for i, c := range clients {
		waitFor(t, func() bool {
			st, err := c.Status(context.Background())
			if err != nil {
				return false
			}
			statuses[i] = st
			return st.Queued == 0
		}, "stream "+streams[i].ID+" to drain its queue")
	}

	// High-water-mark assertions: one record per frame means seq==frame,
	// so the successor must have settled seq nFrames-1 for every stream,
	// and a deliberate replay of the first record (bypassing the client's
	// own dedup, straight at the daemon) must be discarded.
	for i, st := range statuses {
		if st.AckedSeq != nFrames-1 {
			t.Errorf("stream %s: acked_seq %d, want %d", streams[i].ID, st.AckedSeq, nFrames-1)
		}
		if st.Frames != nFrames {
			t.Errorf("stream %s: cursor %d, want %d", streams[i].ID, st.Frames, nFrames)
		}
	}
	status, pr, _ := rawPush(t, hsB.URL, streams[0].ID, `{"seq":0,"frame":0}`+"\n")
	if status != http.StatusOK || pr.Duplicates != 1 || pr.AckedSeq != nFrames-1 || pr.NextFrame != nFrames {
		t.Fatalf("duplicate replay: HTTP %d %+v, want 1 discard with marks unchanged", status, pr)
	}

	var reattaches, retries int64
	for i, c := range clients {
		st := c.Stats()
		if st.Reattaches < 1 {
			t.Errorf("stream %s: reattaches %d, want >= 1 (daemon restarted under it)", streams[i].ID, st.Reattaches)
		}
		reattaches += st.Reattaches
		retries += st.Retries
	}
	if retries < 1 {
		t.Errorf("fleet retries = 0, want >= 1")
	}
	nc := proxy.Counters()
	if nc.Dropped+nc.Stalled+nc.Truncated == 0 {
		t.Errorf("proxy injected no faults across %d connections: %+v", nc.Conns, nc)
	}
	t.Logf("chaos: conns=%d dropped=%d stalled=%d truncated=%d retries=%d reattaches=%d",
		nc.Conns, nc.Dropped, nc.Stalled, nc.Truncated, retries, reattaches)

	// The decisive check: fingerprints equal the sequential single-stream
	// runs, bit for bit, despite the faults, the kill, and the replays.
	for i, s := range streams {
		fin, err := clients[i].Finish(context.Background())
		if err != nil {
			t.Fatalf("finish %s: %v", s.ID, err)
		}
		wantFP, wantFrames := sequentialFingerprint(t, s, windowLen, ckptEvery)
		if fin.Fingerprint != wantFP {
			t.Errorf("stream %s: fingerprint %s != sequential %s", s.ID, fin.Fingerprint, wantFP)
		}
		if fin.Frames != wantFrames {
			t.Errorf("stream %s: frames %d, want %d", s.ID, fin.Frames, wantFrames)
		}
	}

	srvB.Shutdown()
	hsB.Close()
	proxy.Close()
	transport.CloseIdleConnections()
	checkNoGoroutineLeak(t, before)
}
