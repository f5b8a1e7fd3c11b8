package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/ingress"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// The fleet workload: loadgen street-camera streams pushed as NDJSON
// over loopback HTTP into ingress.Server → serve.Manager → ingest
// sessions that auto-checkpoint (durable acks need checkpoints), from
// at most NumCPU sender goroutines sharing one HTTP transport capped at
// NumCPU connections. Two kinds of phase send the fleet's streams, each
// to a fresh server:
//
//   - paced: open loop at a fixed per-camera frame rate, every frame on
//     its own schedule whatever the server does; window latency is
//     measured here, at a fixed offered load.
//   - saturated: every frame is due at once, so the senders push as fast
//     as the server takes them and the sessions' queues never run dry;
//     throughput is measured here, as the rate the server processes.
const (
	fleetCameras   = 48
	fleetWindow    = 40
	fleetK         = 0.05
	fleetCkptEvery = 4
	// fleetRate is each camera's frame rate in a paced phase: an
	// aggregate fleetCameras × fleetRate = 900 frames/s.
	fleetRate = 18.75
	// fleetBatch is how many frames a client sends per push request in a
	// saturated phase (half a window).
	fleetBatch = fleetWindow / 2
	// fleetSatCopies is how many sessions carry each camera's stream in a
	// saturated phase, so the phase is long against its ramp-up and tail.
	fleetSatCopies = 4
)

type fleetInput struct {
	streams []loadgen.Stream
	frames  int
}

// fleetFrames sizes each camera's stream so a paced phase lasts half
// the measuring time.
func fleetFrames(seconds float64) int {
	return int(seconds / 2 * fleetRate)
}

func buildFleet(seed uint64, frames int) (*fleetInput, error) {
	streams, err := loadgen.Generate(loadgen.Config{Seed: seed, Streams: fleetCameras, Frames: frames})
	if err != nil {
		return nil, err
	}
	return &fleetInput{streams: streams, frames: frames}, nil
}

// fleetPipeline builds one stream's isolated tracker/oracle/device chain.
func fleetPipeline(tr *tracer) (*track.Engine, *reid.Oracle) {
	return track.Tracktor(), reid.NewOracle(newModel(), wrapDevice(device.NewCPU(device.DefaultCPU), tr))
}

// fleetRef is one stream's sequential in-process reference run.
type fleetRef struct {
	fingerprint string
	virtual     time.Duration
	stats       reid.Stats
	submissions int64
}

// reference runs stream i through a plain ingest.Ingestor, frame by
// frame, with the serving configuration, logging recall into rec.
func (in *fleetInput) reference(i int, rec *recallLog) (fleetRef, error) {
	s := in.streams[i]
	engine, oracle := fleetPipeline(nil)
	ing, err := ingest.New(engine, oracle, ingest.Config{
		WindowLen:           fleetWindow,
		K:                   fleetK,
		Algorithm:           wrapAlgo(newTMerge(0), nil, rec),
		AutoCheckpointEvery: fleetCkptEvery,
		CheckpointSink:      func([]byte) error { return nil },
	})
	if err != nil {
		return fleetRef{}, err
	}
	for f, dets := range s.Video.Detections {
		ing.PushAt(video.FrameIndex(f), dets)
	}
	ing.Close()
	if err := ing.CheckpointErr(); err != nil {
		return fleetRef{}, err
	}
	res := ing.Result()
	return fleetRef{
		fingerprint: res.Fingerprint(),
		virtual:     res.Virtual,
		stats:       res.Stats,
		submissions: oracle.Device().Submissions(),
	}, nil
}

// fleetServer is one ingress server on a loopback listener.
type fleetServer struct {
	srv  *ingress.Server
	hs   *http.Server
	done chan struct{}
	base string
	obs  *fleetObserver
}

func startFleetServer(in *fleetInput, tr *tracer) (*fleetServer, error) {
	obs := &fleetObserver{emitted: make(map[string][]windowEmit)}
	cfg := serve.Config{
		Workers:         runtime.NumCPU(),
		DefaultQueueCap: in.frames + 1, // never block a push: overload shows as backlog
		OnWindow:        obs.onWindow,
	}
	if tr != nil {
		cfg.Now = time.Now
	}
	srv, err := ingress.NewServer(ingress.ServerConfig{
		Serve: cfg,
		Spec: func(id string, _ ingress.RegisterRequest) (serve.StreamSpec, error) {
			var phase, i int
			if _, err := fmt.Sscanf(id, "p%d-s%d", &phase, &i); err != nil || i < 0 {
				return serve.StreamSpec{}, fmt.Errorf("e2ebench: unknown stream %q", id)
			}
			return serve.StreamSpec{
				Ingest: ingest.Config{
					WindowLen:           fleetWindow,
					K:                   fleetK,
					Algorithm:           wrapAlgo(newTMerge(0), tr, nil),
					AutoCheckpointEvery: fleetCkptEvery,
					CheckpointSink:      obs.onCheckpoint,
				},
				Pipeline: func() (*track.Engine, *reid.Oracle) { return fleetPipeline(tr) },
			}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	fs := &fleetServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		obs:  obs,
	}
	go func() {
		defer close(fs.done)
		_ = fs.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return fs, nil
}

func (fs *fleetServer) stop() {
	fs.srv.Shutdown()
	_ = fs.hs.Close() // closing a loopback listener; nothing to report
	<-fs.done
}

// progress is the total of frames the server's sessions have passed
// and the total still queued.
func (fs *fleetServer) progress() (frames, queued int) {
	for _, s := range fs.srv.Status().Streams {
		frames += s.Frames
		queued += s.Queued
	}
	return frames, queued
}

// windowEmit is one window result as the server emitted it.
type windowEmit struct {
	end     video.FrameIndex
	at      time.Time
	closing time.Duration // service time of the push that closed it
}

// fleetObserver collects window emissions and checkpoint arrivals from
// serve's OnWindow and the sessions' CheckpointSink.
type fleetObserver struct {
	mu        sync.Mutex
	emitted   map[string][]windowEmit
	ckptBytes int64
	ckptLast  int
}

func (o *fleetObserver) onWindow(stream string, res ingest.WindowResult, lat time.Duration) {
	now := time.Now()
	o.mu.Lock()
	o.emitted[stream] = append(o.emitted[stream], windowEmit{end: res.Window.End, at: now, closing: lat})
	o.mu.Unlock()
}

func (o *fleetObserver) onCheckpoint(data []byte) error {
	o.mu.Lock()
	o.ckptBytes += int64(len(data))
	o.ckptLast = len(data)
	o.mu.Unlock()
	return nil
}

// phaseResult is one phase's measurements.
type phaseResult struct {
	processed  float64 // frames the sessions passed per second, from t0 to the drain
	latencies  []float64
	queueWaits []float64
	closing    []float64
	late       []float64
	pushes     []float64 // traced only: Client.Push spans, ms
	// Sender accounting (traced only): goroutine wall time, and the
	// parts of it spent pushing and waiting for the next due time.
	senderWall, senderPush, senderWait time.Duration
	backlogMax                         int // serve queue, frames; paced only
	// Total and last size of the checkpoints the sessions sealed.
	ckptBytes int64
	ckptLast  int
	windows   int
}

// runPhase sends every camera's frames to a fresh server, paced at fps
// frames per second per camera, one frame per request, or, when fps is
// 0, saturated: all due at once, fleetSatCopies sessions per camera and
// fleetBatch frames per request. It waits until the sessions have
// passed every frame and emitted every window, then finishes every
// stream and compares its fingerprint with its camera's reference.
func runPhase(ctx context.Context, hc *http.Client, in *fleetInput, phase int, fps float64, refs []fleetRef, tr *tracer, out *outcome) (phaseResult, error) {
	copies, batch := 1, 1
	if fps == 0 {
		copies, batch = fleetSatCopies, fleetBatch
	}
	// Session i carries camera i mod the fleet's size.
	n := len(in.streams) * copies
	cam := func(i int) int { return i % len(in.streams) }
	var pr phaseResult
	fs, err := startFleetServer(in, tr)
	if err != nil {
		return pr, err
	}
	defer fs.stop()
	clients := make([]*ingress.Client, n)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("p%d-s%d", phase, i)
		c, err := ingress.NewClient(ingress.ClientConfig{
			BaseURL:        fs.base,
			Stream:         ids[i],
			Seed:           in.streams[cam(i)].Seed,
			HTTPClient:     hc,
			RequestTimeout: 30 * time.Second,
			BatchFrames:    batch,
		})
		if err != nil {
			return pr, err
		}
		if _, err := c.Register(ctx, ingress.RegisterRequest{Seed: in.streams[cam(i)].Seed}); err != nil {
			return pr, fmt.Errorf("register %s: %w", ids[i], err)
		}
		clients[i] = c
	}

	// Paced, camera i sends frame f at t0 + (f + i·H/n) / fps, H = half
	// a window: camera start times are staggered evenly over one window
	// stride, so window closings spread over time as they would across
	// independently started cameras.
	t0 := time.Now().Add(20 * time.Millisecond)
	stagger := float64(fleetWindow/2) / float64(n)
	due := func(i int, f video.FrameIndex) time.Time {
		if fps == 0 {
			return t0
		}
		return t0.Add(time.Duration((float64(f) + float64(i)*stagger) / fps * float64(time.Second)))
	}

	// Paced, the serve queue is sampled for its deepest backlog.
	var backlogMax int
	stopSample := make(chan struct{})
	var swg sync.WaitGroup
	stopSampler := sync.OnceFunc(func() {
		close(stopSample)
		swg.Wait()
	})
	defer stopSampler()
	if fps > 0 {
		swg.Add(1)
		go func() {
			defer swg.Done()
			t := time.NewTicker(25 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-t.C:
					_, queued := fs.progress()
					backlogMax = max(backlogMax, queued)
				}
			}
		}()
	}

	senders := min(runtime.NumCPU(), n)
	// Sender g owns cameras g, g+senders, ...; it sends their frames in
	// due-time order, round robin over its cameras where they are due
	// together.
	type sendItem struct {
		camera int
		frame  video.FrameIndex
	}
	plan := make([][]sendItem, senders)
	for f := 0; f < in.frames; f++ {
		for i := 0; i < n; i++ {
			plan[i%senders] = append(plan[i%senders], sendItem{i, video.FrameIndex(f)})
		}
	}
	for _, p := range plan {
		sort.SliceStable(p, func(a, b int) bool { return due(p[a].camera, p[a].frame).Before(due(p[b].camera, p[b].frame)) })
	}
	type senderLog struct {
		late, pushes     []float64
		sent             int64
		wall, push, wait time.Duration
		err              error
	}
	logs := make([]senderLog, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[g]
			begin := time.Now()
			defer func() { lg.wall = time.Since(begin) }()
			for _, it := range plan[g] {
				i, f := it.camera, it.frame
				d := due(i, f)
				if w := time.Until(d); w > 0 {
					ws := tr.begin()
					time.Sleep(w)
					if tr != nil {
						lg.wait += time.Since(ws)
					}
				}
				if fps > 0 {
					lg.late = append(lg.late, ms(time.Since(d)))
				}
				span := tr.begin()
				err := clients[i].Push(ctx, f, in.streams[cam(i)].Video.Detections[f])
				if tr != nil {
					pd := time.Since(span)
					lg.push += pd
					lg.pushes = append(lg.pushes, ms(pd))
				}
				lg.sent++
				if err != nil {
					lg.err = fmt.Errorf("push %s frame %d: %w", ids[i], f, err)
					return
				}
			}
			for i := g; i < n; i += senders {
				if err := clients[i].Flush(ctx); err != nil {
					lg.err = fmt.Errorf("flush %s: %w", ids[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, lg := range logs {
		out.attempted += lg.sent
		if lg.err != nil {
			return pr, lg.err
		}
		pr.late = append(pr.late, lg.late...)
		pr.pushes = append(pr.pushes, lg.pushes...)
		pr.senderWall += lg.wall
		pr.senderPush += lg.push
		pr.senderWait += lg.wait
	}

	// Wait (bounded) until the sessions have passed every frame and
	// emitted every window a frame closed.
	last := video.FrameIndex(in.frames - 1)
	wantWindows := 0
	for f := video.FrameIndex(fleetWindow - 1); f <= last; f += fleetWindow / 2 {
		wantWindows++
	}
	drainBy := time.Now().Add(60 * time.Second)
	for {
		got := 0
		fs.obs.mu.Lock()
		for _, id := range ids {
			got += len(fs.obs.emitted[id])
		}
		fs.obs.mu.Unlock()
		if got >= wantWindows*n {
			if frames, _ := fs.progress(); frames >= n*in.frames {
				break
			}
		}
		if time.Now().After(drainBy) {
			return pr, fmt.Errorf("phase %d: sessions did not drain within 60 s", phase)
		}
		time.Sleep(time.Millisecond)
	}
	pr.processed = float64(n*in.frames) / time.Since(t0).Seconds()
	stopSampler()
	pr.backlogMax = backlogMax

	// Latency: from the due time of each window's closing frame (the
	// window's last frame) to its emission.
	fs.obs.mu.Lock()
	for i, id := range ids {
		for _, e := range fs.obs.emitted[id] {
			lat := e.at.Sub(due(i, e.end))
			pr.latencies = append(pr.latencies, ms(lat))
			if tr != nil {
				pr.closing = append(pr.closing, ms(e.closing))
				pr.queueWaits = append(pr.queueWaits, ms(lat-e.closing))
			}
		}
	}
	fs.obs.mu.Unlock()
	pr.windows = len(pr.latencies)
	out.check(pr.windows == wantWindows*n, "fleet phase %d: %d windows emitted, want %d", phase, pr.windows, wantWindows*n)

	for i, c := range clients {
		if err := c.Flush(ctx); err != nil {
			return pr, fmt.Errorf("flush %s: %w", ids[i], err)
		}
		fin, err := c.Finish(ctx)
		out.attempted++
		if err != nil {
			return pr, fmt.Errorf("finish %s: %w", ids[i], err)
		}
		out.check(fin.Fingerprint == refs[cam(i)].fingerprint, "fleet %s fingerprint %.12s, in-process reference %.12s", ids[i], fin.Fingerprint, refs[cam(i)].fingerprint)
		out.check(fin.DegradedWindows == 0, "fleet %s: %d degraded windows without injected faults", ids[i], fin.DegradedWindows)
		if tr != nil {
			st := c.Stats()
			tr.add("ingress.requests", float64(st.Requests))
			tr.add("ingress.throttled", float64(st.Throttled))
			tr.add("ingress.retries", float64(st.Retries))
		}
	}
	fs.obs.mu.Lock()
	pr.ckptBytes, pr.ckptLast = fs.obs.ckptBytes, fs.obs.ckptLast
	fs.obs.mu.Unlock()
	kind := "paced"
	if fps == 0 {
		kind = "saturated"
	}
	fmt.Fprintf(os.Stderr, "e2ebench: fleet phase %d (%s): %d cameras, processed %.1f frames/s, window p50 %.2f ms p99 %.2f ms\n",
		phase, kind, n, pr.processed, quantile(pr.latencies, 0.5), quantile(pr.latencies, 0.99))
	return pr, nil
}

func runFleet(opt options) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{metrics: make(map[string]float64)}
	frames := fleetFrames(opt.seconds)
	if frames < 2*fleetWindow {
		return nil, fmt.Errorf("measuring time too short: %d frames per camera, need %d", frames, 2*fleetWindow)
	}
	var in *fleetInput
	build := func() error {
		var err error
		if in, err = buildFleet(opt.seed, frames); err != nil {
			return err
		}
		// Server start-up is part of set-up; every phase starts its own
		// server so it begins from an empty manager.
		fs, err := startFleetServer(in, nil)
		if err != nil {
			return err
		}
		fs.stop()
		return nil
	}
	var setup setupClock
	if err := setup.time(build, 2); err != nil {
		return nil, err
	}

	// Sequential in-process references, outside the timed phases.
	rec := &recallLog{}
	refs := make([]fleetRef, len(in.streams))
	var virtual time.Duration
	for i := range in.streams {
		var err error
		if refs[i], err = in.reference(i, rec); err != nil {
			return nil, fmt.Errorf("reference %s: %w", in.streams[i].ID, err)
		}
		virtual += refs[i].virtual
	}

	transport := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	phase := 0
	run := func(fps float64, tr *tracer) (phaseResult, error) {
		defer transport.CloseIdleConnections()
		runtime.GC() // every phase starts from a collected heap
		phase++
		return runPhase(ctx, hc, in, phase, fps, refs, tr, out)
	}

	// Untraced: one paced phase (half the measuring time), then saturated
	// phases for the other half, at least one. Traced: the paced phase is
	// the baseline and is followed by a traced paced phase.
	heap := startHeapSampler(5 * time.Millisecond)
	rt0 := readRuntime()
	paced, err := run(fleetRate, nil)
	rt1 := readRuntime()
	peak := heap.segment()
	heap.Stop()
	if err != nil {
		return nil, err
	}

	m := out.metrics
	m["device.virtual_fps"] = float64(len(in.streams)*in.frames) / virtual.Seconds()
	m["core.rec_k"] = rec.rec()
	m["latency_p50_ms"] = quantile(paced.latencies, 0.5)
	m["latency_ms.p90"] = quantile(paced.latencies, 0.9)
	m["latency_ms.p99"] = quantile(paced.latencies, 0.99)
	m["runtime.peak_heap_mb"] = peak
	if !opt.trace {
		var rates []float64
		start := time.Now()
		for len(rates) == 0 || !deadline(start, opt.seconds/2) {
			sat, err := run(0, nil)
			if err != nil {
				return nil, err
			}
			rates = append(rates, sat.processed)
		}
		m["wall_fps"] = quantile(rates, 0.5)
		if err := setup.time(build, 1); err != nil {
			return nil, err
		}
		m["setup_s"] = setup.median()
		return out, nil
	}
	runtimeMetrics(m, rt0, rt1, len(in.streams)*in.frames)

	tr := newTracer()
	tp, err := run(fleetRate, tr)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = quantile(tp.latencies, 0.5)/quantile(paced.latencies, 0.5) - 1

	m["ingress.flush_ms.p50"] = quantile(tp.pushes, 0.5)
	m["ingress.flush_ms.p99"] = quantile(tp.pushes, 0.99)
	m["ingress.requests"] = tr.count("ingress.requests")
	m["ingress.throttled"] = tr.count("ingress.throttled")
	m["ingress.retries"] = tr.count("ingress.retries")
	m["ingress.decode_us_per_frame"] = decodeCost(in)
	m["gen.late_ms.p50"] = quantile(tp.late, 0.5)
	m["gen.late_ms.max"] = quantile(tp.late, 1)
	m["serve.queue_wait_ms.p50"] = quantile(tp.queueWaits, 0.5)
	m["serve.queue_wait_ms.p99"] = quantile(tp.queueWaits, 0.99)
	m["serve.closing_push_ms.p50"] = quantile(tp.closing, 0.5)
	m["serve.closing_push_ms.p99"] = quantile(tp.closing, 0.99)
	m["serve.backlog_frames.max"] = float64(tp.backlogMax)
	tr.layerMetrics(m)
	// Oracle and device counts: one pass over the fleet's streams (the
	// reference runs, whose fingerprints every phase matched).
	var st reid.Stats
	var subs int64
	for _, r := range refs {
		st.Extractions += r.stats.Extractions
		st.CacheHits += r.stats.CacheHits
		st.Distances += r.stats.Distances
		subs += r.submissions
	}
	oracleMetrics(m, st, subs, virtual)
	m["ckpt.bytes.last"] = float64(tp.ckptLast)
	if tp.windows > 0 {
		m["ckpt.bytes_per_window"] = float64(tp.ckptBytes) / float64(tp.windows)
	}
	// The sender path: how much of each sender goroutine's time went to
	// neither a push nor a scheduled wait.
	if tp.senderWall > 0 {
		m["trace.unattributed_frac"] = 1 - (tp.senderPush+tp.senderWait).Seconds()/tp.senderWall.Seconds()
	}
	return out, nil
}

// decodeCost times ingress.DecodePushBatch over the fleet's push
// bodies, one record per body as the senders send them, and returns
// microseconds per frame.
func decodeCost(in *fleetInput) float64 {
	var bodies [][]byte
	for i := range in.streams {
		for f := 0; f < in.frames; f++ {
			var b bytes.Buffer
			rec := ingress.PushRecord{Seq: int64(f), Frame: video.FrameIndex(f), Dets: in.streams[i].Video.Detections[f]}
			if err := ingress.EncodePushBatch(&b, []ingress.PushRecord{rec}); err != nil {
				return 0
			}
			bodies = append(bodies, b.Bytes())
		}
	}
	start := time.Now()
	for _, b := range bodies {
		if _, err := ingress.DecodePushBatch(bytes.NewReader(b), ingress.DefaultMaxLineBytes); err != nil {
			return 0
		}
	}
	return us(time.Since(start)) / float64(len(bodies))
}
