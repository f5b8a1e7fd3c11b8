package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// checkNoGoroutineLeak fails the test if the goroutine count has not
// returned to (roughly) its before-value within a few seconds — the
// manager's contract is that no worker or supervisor goroutine outlives
// Shutdown (the PR 4 executor leak-check idiom).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, now)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testFault is the scripted fault profile the serving tests reuse: a
// deterministic outage early in the stream plus a low transient rate.
func testFault(seed uint64) fault.Config {
	return fault.Config{
		Seed:           seed,
		TransientRate:  0.05,
		FailureLatency: 50 * time.Microsecond,
		Schedule:       fault.NewSchedule(fault.Outage{From: 4, To: 10}),
	}
}

// testPipeline builds a per-stream pipeline factory: fresh engine,
// model, oracle, and device chain per call, as PipelineFactory demands.
// A nil fault config yields a plain CPU device; otherwise the chain is
// CPU → Flaky(fc) → ResilientDevice.
func testPipeline(seed uint64, fc *fault.Config) PipelineFactory {
	return func() (*track.Engine, *reid.Oracle) {
		var dev device.Device = device.NewCPU(device.DefaultCPU)
		if fc != nil {
			dev = device.NewResilientDevice(
				fault.NewFlaky(dev, *fc),
				device.RetryPolicy{MaxAttempts: 2, Jitter: -1},
				device.BreakerConfig{Threshold: 2, Cooldown: -1, CooldownRejections: -1},
				seed^0xD1CE)
		}
		model := reid.NewModel(seed^0x5EED, dataset.AppearanceDim)
		return track.Tracktor(), reid.NewOracle(model, dev)
	}
}

// testIngestCfg returns a fresh streaming configuration (fresh algorithm
// instance — algorithm instances must not be shared across streams).
func testIngestCfg(seed uint64, windowLen, ckptEvery int) ingest.Config {
	tc := core.DefaultTMergeConfig(seed)
	tc.TauMax = 300
	return ingest.Config{
		WindowLen:           windowLen,
		K:                   0.05,
		Algorithm:           core.NewTMerge(tc),
		AutoCheckpointEvery: ckptEvery,
		CheckpointSink:      func([]byte) error { return nil },
		Workers:             1,
	}
}

// ingestFrame converts a loop index to a frame index.
func ingestFrame(f int) video.FrameIndex { return video.FrameIndex(f) }

func TestAdmissionQueuesUntilCapacityFrees(t *testing.T) {
	before := runtime.NumGoroutine()
	// Cost = ceil(100 / 50) = 2 windows: the first stream consumes the
	// whole budget and the second is parked.
	m := NewManager(Config{Workers: 1, WindowBudget: 2, DefaultQueueCap: 100})
	defer func() {
		m.Shutdown()
		checkNoGoroutineLeak(t, before)
	}()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 11, Streams: 2, Frames: 120})
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Register(StreamSpec{ID: "a", Ingest: testIngestCfg(1, 100, 0), Pipeline: testPipeline(1, nil)}); err != nil {
		t.Fatalf("register a: %v", err)
	}
	if err := m.Register(StreamSpec{ID: "b", Ingest: testIngestCfg(2, 100, 0), Pipeline: testPipeline(2, nil)}); err != nil {
		t.Fatalf("register b (queued): %v", err)
	}
	if got := m.Snapshot()[1].State; got != Pending {
		t.Fatalf("stream b state = %v, want Pending", got)
	}
	if err := m.Push("b", 0, nil); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("push to pending stream: got %v, want ErrNotAdmitted", err)
	}

	for f, dets := range streams[0].Video.Detections {
		if err := m.Push("a", ingestFrame(f), dets); err != nil {
			t.Fatalf("push a: %v", err)
		}
	}
	if _, err := m.Finish("a"); err != nil {
		t.Fatalf("finish a: %v", err)
	}

	// Finishing a releases the budget; b is admitted asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.Snapshot()[1]; st.State == Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream b never admitted: %+v", m.Snapshot()[1])
		}
		time.Sleep(time.Millisecond)
	}
	for f, dets := range streams[1].Video.Detections {
		if err := m.Push("b", ingestFrame(f), dets); err != nil {
			t.Fatalf("push b: %v", err)
		}
	}
	res, err := m.Finish("b")
	if err != nil {
		t.Fatalf("finish b: %v", err)
	}
	if res.FramesProcessed != streams[1].Video.NumFrames {
		t.Fatalf("stream b processed %d frames, want %d", res.FramesProcessed, streams[1].Video.NumFrames)
	}
}

// TestResumeReportsLastWindowHealth pins that a stream resumed from a
// checkpoint takes its health from the session's last committed window,
// as supervisor recovery does: a session checkpointed right after a
// degraded window (a permanent oracle outage) resumes Degraded, with the
// session's window and degraded counts.
func TestResumeReportsLastWindowHealth(t *testing.T) {
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 5, Streams: 1, Frames: 200})
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.Config{Seed: 5, FailureLatency: 50 * time.Microsecond, Schedule: fault.NewSchedule(fault.Outage{From: 0, To: 1 << 40})}
	pipeline := testPipeline(5, &fc)
	engine, oracle := pipeline()
	ing, err := ingest.New(engine, oracle, testIngestCfg(5, 40, 0))
	if err != nil {
		t.Fatal(err)
	}
	var results []ingest.WindowResult
	for f, dets := range streams[0].Video.Detections {
		if results = ing.PushAt(ingestFrame(f), dets); len(results) > 0 && results[len(results)-1].Degraded {
			break
		}
	}
	if len(results) == 0 {
		t.Fatal("no degraded window committed under a permanent outage")
	}
	degraded := 0
	for _, r := range ing.Results() {
		if r.Degraded {
			degraded++
		}
	}
	ckpt, err := ing.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Workers: 1})
	defer func() {
		m.Shutdown()
		checkNoGoroutineLeak(t, before)
	}()
	spec := StreamSpec{ID: "s", Ingest: testIngestCfg(5, 40, 0), Pipeline: pipeline, Resume: ckpt}
	if err := m.Register(spec); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()[0]
	if st.State != Degraded || st.Windows != len(ing.Results()) || st.DegradedWindows != degraded {
		t.Fatalf("resumed stream: state %v, %d windows (%d degraded); want degraded, %d windows (%d degraded)",
			st.State, st.Windows, st.DegradedWindows, len(ing.Results()), degraded)
	}
}

func TestShedReturnsTypedOverloadAndRecoveryDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 21, Streams: 1, Frames: 40})
	if err != nil {
		t.Fatal(err)
	}
	v := streams[0].Video

	// The factory blocks on its second call (the recovery rebuild) until
	// the test releases it, holding the stream in Recovering so its
	// bounded queue can be filled deterministically.
	release := make(chan struct{})
	var calls atomic.Int64
	inner := testPipeline(21, nil)
	factory := func() (*track.Engine, *reid.Oracle) {
		if calls.Add(1) > 1 {
			<-release
		}
		return inner()
	}

	m := NewManager(Config{Workers: 1, Shed: true, DefaultQueueCap: 4, TurnFrames: 4})
	defer func() {
		m.Shutdown()
		checkNoGoroutineLeak(t, before)
	}()
	cfg := testIngestCfg(21, 20, 0)
	if err := m.Register(StreamSpec{ID: "s", Ingest: cfg, Pipeline: factory, CrashAtFrame: 1}); err != nil {
		t.Fatal(err)
	}

	// Frames 0 and 1: the injected crash fires before frame 1, after
	// which the supervisor blocks in the factory.
	for f := 0; f < 2; f++ {
		if err := m.Push("s", ingestFrame(f), v.Detections[f]); err != nil {
			t.Fatalf("push %d: %v", f, err)
		}
	}
	waitFor(t, func() bool {
		st := m.Snapshot()[0]
		return st.State == Recovering && st.Queued == 0
	}, "stream quarantined and drained into recovery")

	// The stream is not schedulable while recovering: four more frames
	// fill the bounded queue, the fifth sheds with the typed error.
	for f := 2; f < 6; f++ {
		if err := m.Push("s", ingestFrame(f), v.Detections[f]); err != nil {
			t.Fatalf("push %d: %v", f, err)
		}
	}
	if err := m.Push("s", 6, v.Detections[6]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("push to full queue: got %v, want ErrOverloaded", err)
	}

	close(release)
	res, err := m.Finish("s")
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if got := m.Snapshot()[0]; got.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", got.Restarts)
	}

	// Recovery without a checkpoint replays the full history: the result
	// must still match the sequential run over the frames that were
	// accepted (0..5; frame 6 was shed).
	engine, oracle := inner()
	ref, err := ingest.New(engine, oracle, testIngestCfg(21, 20, 0))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 6; f++ {
		ref.PushAt(ingestFrame(f), v.Detections[f])
	}
	ref.Close()
	if got, want := res.Fingerprint(), ref.Result().Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %s != sequential %s", got, want)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 31, Streams: 2, Frames: 64})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	m := NewManager(Config{
		Workers: 1, TurnFrames: 4, DefaultQueueCap: 64,
		OnWindow: func(id string, _ ingest.WindowResult, _ time.Duration) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		},
	})
	defer func() {
		m.Shutdown()
		checkNoGoroutineLeak(t, before)
	}()

	for i, id := range []string{"hot", "cold"} {
		cfg := testIngestCfg(uint64(31+i), 8, 0)
		if err := m.Register(StreamSpec{ID: id, Ingest: cfg, Pipeline: testPipeline(uint64(31+i), nil)}); err != nil {
			t.Fatal(err)
		}
	}
	// The hot stream queues 64 frames, then the cold stream queues 16.
	// Round-robin with a 4-frame turn bound must interleave them: the
	// cold stream's first window may not wait for the hot stream's last.
	for f := 0; f < 64; f++ {
		if err := m.Push("hot", ingestFrame(f), streams[0].Video.Detections[f]); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 16; f++ {
		if err := m.Push("cold", ingestFrame(f), streams[1].Video.Detections[f]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Finish("hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish("cold"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	firstCold, lastHot := -1, -1
	for i, id := range order {
		if id == "cold" && firstCold < 0 {
			firstCold = i
		}
		if id == "hot" {
			lastHot = i
		}
	}
	if firstCold < 0 || lastHot < 0 {
		t.Fatalf("missing windows in order %v", order)
	}
	if firstCold > lastHot {
		t.Fatalf("cold stream starved: first cold window at %d, last hot window at %d (order %v)", firstCold, lastHot, order)
	}
}

func TestShutdownIdempotentAndRefusesWork(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{Workers: 2})
	if err := m.Register(StreamSpec{ID: "s", Ingest: testIngestCfg(41, 20, 0), Pipeline: testPipeline(41, nil)}); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	m.Shutdown() // idempotent
	if err := m.Push("s", 0, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("push after shutdown: got %v, want ErrStopped", err)
	}
	if err := m.Register(StreamSpec{ID: "t", Ingest: testIngestCfg(42, 20, 0), Pipeline: testPipeline(42, nil)}); !errors.Is(err, ErrStopped) {
		t.Fatalf("register after shutdown: got %v, want ErrStopped", err)
	}
	if _, err := m.Finish("s"); !errors.Is(err, ErrStopped) {
		t.Fatalf("finish after shutdown: got %v, want ErrStopped", err)
	}
	checkNoGoroutineLeak(t, before)
}

func TestRegisterValidation(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{Workers: 1})
	defer func() {
		m.Shutdown()
		checkNoGoroutineLeak(t, before)
	}()
	if err := m.Register(StreamSpec{ID: "", Ingest: testIngestCfg(1, 20, 0), Pipeline: testPipeline(1, nil)}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := m.Register(StreamSpec{ID: "x", Ingest: testIngestCfg(1, 20, 0)}); err == nil {
		t.Fatal("nil factory accepted")
	}
	bad := testIngestCfg(1, 20, 0)
	bad.WindowLen = 7 // odd
	if err := m.Register(StreamSpec{ID: "x", Ingest: bad, Pipeline: testPipeline(1, nil)}); err == nil {
		t.Fatal("invalid ingest config accepted")
	}
	if err := m.Register(StreamSpec{ID: "x", Ingest: testIngestCfg(1, 20, 0), Pipeline: testPipeline(1, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(StreamSpec{ID: "x", Ingest: testIngestCfg(2, 20, 0), Pipeline: testPipeline(2, nil)}); !errors.Is(err, ErrDuplicateStream) {
		t.Fatalf("duplicate id: got %v, want ErrDuplicateStream", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
