package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/ingress"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/video"
)

// serveConfig maps the daemon flags onto the shared pool configuration —
// identical for the in-process and network modes.
func serveConfig(c cfg) serve.Config {
	sc := serve.Config{
		Workers:         c.workers,
		WindowBudget:    c.budget,
		DefaultQueueCap: c.queueCap,
		TurnFrames:      c.turn,
		Shed:            c.shed,
	}
	if c.histDir != "" {
		sc.History = &serve.HistoryRoot{
			Dir:               c.histDir,
			HotHorizon:        c.histHorizon,
			WindowsPerSegment: c.histSegWindows,
			CompactEvery:      c.histCompact,
		}
	}
	return sc
}

// specFunc builds network registrations: the wire request's seed, window
// length, and checkpoint cadence override the daemon defaults, and the
// daemon's fault flags (oracle outages, transients) apply to every
// network stream's pipeline just as they do to the loadgen fleet.
func specFunc(c cfg, outageWin *fault.Outage) ingress.SpecFunc {
	return func(id string, req ingress.RegisterRequest) (serve.StreamSpec, error) {
		wl := req.WindowLen
		if wl <= 0 {
			wl = c.windowLen
		}
		ck := req.CheckpointEvery
		if ck <= 0 {
			ck = c.ckptEvery
		}
		faulty := c.transient > 0 || outageWin != nil
		return serve.StreamSpec{
			Ingest: ingest.Config{
				WindowLen:           wl,
				K:                   0.05,
				Algorithm:           core.NewTMerge(core.DefaultTMergeConfig(req.Seed)),
				AutoCheckpointEvery: ck,
			},
			Pipeline: pipelineFactory(req.Seed, faulty, c.transient, outageWin),
			QueueCap: req.QueueCap,
		}, nil
	}
}

// runServe is the -http mode: a network-facing daemon that accepts
// register/push/finish over HTTP and drains to checkpoint on SIGTERM or
// SIGINT, so a restarted daemon (same -checkpoint-dir) resumes every
// stream where the flush stopped.
func runServe(c cfg) int {
	outageWin, _, _, code := parseFaultFlags(c)
	if code != 0 {
		return code
	}
	var store ingress.Store
	where := "in-memory (resume state dies with the process; set -checkpoint-dir to survive restarts)"
	if c.ckptDir != "" {
		ds, err := ingress.NewDirStore(c.ckptDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmerged:", err)
			return 1
		}
		store = ds
		where = c.ckptDir
	} else {
		store = ingress.NewMemStore()
	}
	srv, err := ingress.NewServer(ingress.ServerConfig{
		Serve: serveConfig(c),
		Store: store,
		Spec:  specFunc(c, outageWin),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	ln, err := net.Listen("tcp", c.httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("tmerged: listening on http://%s (workers %d, checkpoints: %s)\n",
		ln.Addr(), c.workers, where)

	statusDone := make(chan struct{})
	var statusWG sync.WaitGroup
	if c.statusMS > 0 {
		statusWG.Add(1)
		go func() {
			defer statusWG.Done()
			for {
				select {
				case <-statusDone:
					return
				case <-time.After(time.Duration(c.statusMS) * time.Millisecond):
					printNetStatus(srv.Status())
				}
			}
		}()
	}
	defer func() {
		close(statusDone)
		statusWG.Wait()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "tmerged: listener:", err)
		return 1
	case got := <-sig:
		fmt.Printf("tmerged: %v: draining to checkpoint (timeout %dms)...\n", got, c.drainMS)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(c.drainMS)*time.Millisecond)
		defer cancel()
		err := srv.Drain(ctx)
		_ = hs.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmerged: drain:", err)
			return 1
		}
		fmt.Println("tmerged: drained; checkpoints sealed at frame boundaries")
		return 0
	}
}

// runPush is the -push mode: the retrying network client. It feeds the
// deterministic loadgen fleet to a remote daemon, riding the protocol's
// backpressure and resuming transparently if the daemon restarts
// mid-stream.
func runPush(c cfg) int {
	ctx := context.Background()
	fleet, err := loadgen.Generate(loadgen.Config{Seed: c.seed, Streams: c.streams, Frames: c.frames})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	fmt.Printf("tmerged: pushing %d streams × %d frames to %s (batch %d)\n",
		c.streams, fleet[0].Video.NumFrames, c.pushURL, c.batchFrames)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		code int
	)
	for _, s := range fleet {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				fmt.Fprintf(os.Stderr, "tmerged: %s: %v\n", s.ID, err)
				code = 1
				mu.Unlock()
			}
			cl, err := ingress.NewClient(ingress.ClientConfig{
				BaseURL:     c.pushURL,
				Stream:      s.ID,
				Seed:        s.Seed,
				BatchFrames: c.batchFrames,
			})
			if err != nil {
				fail(err)
				return
			}
			reg, err := cl.Register(ctx, ingress.RegisterRequest{
				Seed: s.Seed, WindowLen: c.windowLen, CheckpointEvery: c.ckptEvery,
			})
			if err != nil {
				fail(err)
				return
			}
			if reg.Resumed {
				fmt.Printf("tmerged: %s resumed from checkpoint at frame %d\n", s.ID, reg.NextFrame)
			}
			for f, dets := range s.Video.Detections {
				if err := cl.Push(ctx, video.FrameIndex(f), dets); err != nil {
					fail(fmt.Errorf("push frame %d: %w", f, err))
					return
				}
			}
			fin, err := cl.Finish(ctx)
			if err != nil {
				fail(err)
				return
			}
			st := cl.Stats()
			fmt.Printf("tmerged: %s done: %d frames, %d windows (%d degraded), fingerprint %.12s | %d requests, %d retries, %d throttled, %d reattaches, %d dup-acked\n",
				s.ID, fin.Frames, fin.Windows, fin.DegradedWindows, fin.Fingerprint,
				st.Requests, st.Retries, st.Throttled, st.Reattaches, st.DuplicatesAcked)
		}()
	}
	wg.Wait()
	return code
}

// runNetSoak is the -net-soak CI mode: a self-contained end-to-end soak
// of the network ingress. A loopback fleet pushes through a
// fault-injecting TCP proxy into daemon A; once every stream is half
// delivered, A drains to a durable checkpoint directory and exits,
// clients hammer the dead endpoint (observable transport retries), and
// daemon B over the same directory takes over. The run fails unless
// every stream's fingerprint equals an uninterrupted in-process run,
// at least one push was retried, every client re-registered, and the
// proxy actually injected faults.
func runNetSoak(c cfg) int {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "tmerged-soak-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	store, err := ingress.NewDirStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	fleet, err := loadgen.Generate(loadgen.Config{Seed: c.seed, Streams: c.streams, Frames: c.frames})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	frames := fleet[0].Video.NumFrames
	half := frames / 2
	fmt.Printf("tmerged: net soak: %d streams × %d frames, drain+restart at frame %d, checkpoints in %s\n",
		c.streams, frames, half, dir)

	up := func() (*ingress.Server, *http.Server, net.Listener, chan struct{}, error) {
		srv, err := ingress.NewServer(ingress.ServerConfig{
			Serve: serveConfig(c),
			Store: store,
			Spec:  specFunc(c, nil),
		})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown()
			return nil, nil, nil, nil, err
		}
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		served := make(chan struct{})
		go func() { _ = hs.Serve(ln); close(served) }()
		return srv, hs, ln, served, nil
	}
	srvA, hsA, lnA, servedA, err := up()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	proxy, err := fault.NewProxy("127.0.0.1:0", lnA.Addr().String(), fault.NetConfig{
		Seed:          c.seed ^ 0xC4A05,
		DropRate:      0.10,
		StallRate:     0.05,
		StallFor:      5 * time.Millisecond,
		TruncateRate:  0.10,
		TruncateAfter: 2048,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		return 1
	}
	defer proxy.Close()
	transport := &http.Transport{DisableKeepAlives: true} // fresh conn per request: every request rolls the fault dice
	defer transport.CloseIdleConnections()

	var (
		wg       sync.WaitGroup
		halfDone sync.WaitGroup
		resume   = make(chan struct{})
		mu       sync.Mutex
		code     int
		clients  = make([]*ingress.Client, len(fleet))
		fins     = make([]ingress.FinishResponse, len(fleet))
	)
	// Every abort path below releases the waiting clients; OnceFunc makes
	// the overlapping paths (abort-at-half, drain failure, restart
	// failure, normal handover) double-close-proof.
	release := sync.OnceFunc(func() { close(resume) })
	fail := func(id string, err error) {
		mu.Lock()
		fmt.Fprintf(os.Stderr, "tmerged: soak %s: %v\n", id, err)
		code = 1
		mu.Unlock()
	}
	halfDone.Add(len(fleet))
	for i, s := range fleet {
		i, s := i, s
		cl, err := ingress.NewClient(ingress.ClientConfig{
			BaseURL:        "http://" + proxy.Addr(),
			Stream:         s.ID,
			Seed:           s.Seed,
			HTTPClient:     &http.Client{Transport: transport, Timeout: 2 * time.Minute},
			RequestTimeout: 500 * time.Millisecond,
			MaxAttempts:    64,
			BackoffBase:    2 * time.Millisecond,
			BackoffMax:     25 * time.Millisecond,
			BatchFrames:    c.batchFrames,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmerged:", err)
			return 1
		}
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Register(ctx, ingress.RegisterRequest{
				Seed: s.Seed, WindowLen: c.windowLen, CheckpointEvery: c.ckptEvery,
			}); err != nil {
				fail(s.ID, err)
				halfDone.Done()
				return
			}
			for f := 0; f < half; f++ {
				if err := cl.Push(ctx, video.FrameIndex(f), s.Video.Detections[f]); err != nil {
					fail(s.ID, fmt.Errorf("push %d: %w", f, err))
					halfDone.Done()
					return
				}
			}
			halfDone.Done()
			<-resume // daemon A drains and daemon B takes over while we wait
			for f := half; f < frames; f++ {
				if err := cl.Push(ctx, video.FrameIndex(f), s.Video.Detections[f]); err != nil {
					fail(s.ID, fmt.Errorf("push %d after restart: %w", f, err))
					return
				}
			}
			fin, err := cl.Finish(ctx)
			if err != nil {
				fail(s.ID, err)
				return
			}
			fins[i] = fin
		}()
	}

	halfDone.Wait()
	mu.Lock()
	aborted := code != 0
	mu.Unlock()
	if aborted {
		release()
		wg.Wait()
		return 1
	}

	// Graceful handover: drain A (flush queues, seal frame-boundary
	// checkpoints into the store), then take its listener away so the
	// waiting clients' next pushes visibly fail and retry.
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = srvA.Drain(drainCtx)
	cancel()
	_ = hsA.Close()
	<-servedA
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged: soak drain:", err)
		release()
		wg.Wait()
		return 1
	}
	sealed := 0
	for _, s := range fleet {
		if _, ok, _ := store.Get(s.ID); ok {
			sealed++
		}
	}
	fmt.Printf("tmerged: daemon A drained: %d/%d checkpoints sealed; restarting behind the proxy\n", sealed, len(fleet))
	if sealed != len(fleet) {
		fmt.Fprintf(os.Stderr, "tmerged: soak: drain sealed %d checkpoints, want %d\n", sealed, len(fleet))
		code = 1
	}

	srvB, hsB, lnB, servedB, err := up()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmerged:", err)
		release()
		wg.Wait()
		return 1
	}
	defer func() {
		srvB.Shutdown()
		_ = hsB.Close()
		<-servedB
	}()
	// Release the clients against the dead endpoint first and wait for
	// fresh connection attempts — the soak must observe real retries —
	// then point the proxy at daemon B.
	base := proxy.Counters().Conns
	release()
	for i := 0; i < 5000 && proxy.Counters().Conns < base+3; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if proxy.Counters().Conns < base+3 {
		fmt.Fprintln(os.Stderr, "tmerged: soak: no pushes observed against the dead daemon")
		code = 1
	}
	proxy.SetBackend(lnB.Addr().String())
	wg.Wait()
	mu.Lock()
	if code != 0 {
		mu.Unlock()
		return 1
	}
	mu.Unlock()

	// Verdicts: bit-identical fingerprints against uninterrupted
	// in-process runs, observed retries and reattaches, and real faults.
	var retries, reattaches, dups int64
	for i, s := range fleet {
		ref, err := sequentialRef(s, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmerged: soak reference:", err)
			return 1
		}
		if fins[i].Fingerprint != ref {
			fmt.Fprintf(os.Stderr, "tmerged: soak %s: fingerprint %s != sequential %s\n", s.ID, fins[i].Fingerprint, ref)
			code = 1
		}
		if fins[i].Frames != frames {
			fmt.Fprintf(os.Stderr, "tmerged: soak %s: %d frames, want %d\n", s.ID, fins[i].Frames, frames)
			code = 1
		}
		st := clients[i].Stats()
		if st.Reattaches < 1 {
			fmt.Fprintf(os.Stderr, "tmerged: soak %s: never re-registered across the restart\n", s.ID)
			code = 1
		}
		retries += st.Retries
		reattaches += st.Reattaches
		dups += st.DuplicatesAcked
	}
	if retries < 1 {
		fmt.Fprintln(os.Stderr, "tmerged: soak: no retried push observed")
		code = 1
	}
	nc := proxy.Counters()
	if nc.Dropped+nc.Stalled+nc.Truncated == 0 {
		fmt.Fprintf(os.Stderr, "tmerged: soak: proxy injected no faults across %d connections\n", nc.Conns)
		code = 1
	}
	fmt.Printf("tmerged: soak: conns=%d dropped=%d stalled=%d truncated=%d retries=%d reattaches=%d dup-acked=%d\n",
		nc.Conns, nc.Dropped, nc.Stalled, nc.Truncated, retries, reattaches, dups)
	if code == 0 {
		fmt.Printf("tmerged: soak PASS: %d streams bit-identical across drain/restart under network chaos\n", len(fleet))
	}
	return code
}

// sequentialRef computes a stream's uninterrupted in-process
// fingerprint under the same configuration the soak daemons serve.
func sequentialRef(s loadgen.Stream, c cfg) (string, error) {
	engine, oracle := pipelineFactory(s.Seed, false, 0, nil)()
	ic := ingest.Config{
		WindowLen:           c.windowLen,
		K:                   0.05,
		Algorithm:           core.NewTMerge(core.DefaultTMergeConfig(s.Seed)),
		AutoCheckpointEvery: c.ckptEvery,
	}
	if c.ckptEvery > 0 {
		ic.CheckpointSink = func([]byte) error { return nil }
	}
	ing, err := ingest.New(engine, oracle, ic)
	if err != nil {
		return "", err
	}
	for f, dets := range s.Video.Detections {
		ing.PushAt(video.FrameIndex(f), dets)
	}
	ing.Close()
	return ing.Result().Fingerprint(), nil
}

// printNetStatus renders the network daemon's status document, the
// serve-layer health table plus the ingress dedup marks.
func printNetStatus(doc ingress.StatusResponse) {
	if doc.Draining {
		fmt.Println("tmerged: DRAINING")
	}
	fmt.Printf("%-12s %-12s %7s %6s %7s %9s %8s %9s %7s %s\n",
		"STREAM", "STATE", "FRAMES", "QUEUE", "WINDOWS", "DEGRADED", "RESTART", "ACKEDSEQ", "DUPS", "ERR")
	for _, st := range doc.Streams {
		errStr := st.Err
		if len(errStr) > 40 {
			errStr = errStr[:37] + "..."
		}
		fmt.Printf("%-12s %-12s %7d %6d %7d %9d %8d %9d %7d %s\n",
			st.ID, st.State, st.Frames, st.Queued, st.Windows,
			st.DegradedWindows, st.Restarts, st.AckedSeq, st.Duplicates, errStr)
	}
}
