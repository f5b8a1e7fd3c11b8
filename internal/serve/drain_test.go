package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
)

// TestDrainResumeBitIdentical pins the drain-to-checkpoint contract end
// to end: a fleet is half-pushed, drained, and resumed on a brand-new
// manager via StreamSpec.Resume; after the second half of the frames the
// fingerprints are bit-identical to uninterrupted sequential runs.
func TestDrainResumeBitIdentical(t *testing.T) {
	before := runtime.NumGoroutine()
	const frames = 160
	streams, err := loadgen.Generate(loadgen.Config{Seed: 41, Streams: 3, Frames: frames})
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Workers: 2, TurnFrames: 8, DefaultQueueCap: frames})
	for _, s := range streams {
		spec := StreamSpec{ID: s.ID, Ingest: testIngestCfg(s.Seed, 40, 3), Pipeline: testPipeline(s.Seed, nil)}
		if err := m.Register(spec); err != nil {
			t.Fatalf("register %s: %v", s.ID, err)
		}
	}
	const cut = frames / 2
	for _, s := range streams {
		for f := 0; f < cut; f++ {
			if err := m.Push(s.ID, ingestFrame(f), s.Video.Detections[f]); err != nil {
				t.Fatalf("push %s frame %d: %v", s.ID, f, err)
			}
		}
	}

	ckpts, err := m.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkNoGoroutineLeak(t, before)
	if len(ckpts) != len(streams) {
		t.Fatalf("drain returned %d checkpoints, want %d", len(ckpts), len(streams))
	}
	// The manager is shut down by the time Drain returns.
	if err := m.Push(streams[0].ID, cut, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("push after drain: got %v, want ErrStopped", err)
	}
	if _, err := m.Drain(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("second drain: got %v, want ErrStopped", err)
	}

	// Successor manager: same specs plus the drained checkpoints. The
	// drain flushed every accepted frame, so each resumed cursor must sit
	// exactly at the cut.
	m2 := NewManager(Config{Workers: 2, TurnFrames: 8, DefaultQueueCap: frames})
	for _, s := range streams {
		spec := StreamSpec{
			ID: s.ID, Ingest: testIngestCfg(s.Seed, 40, 3),
			Pipeline: testPipeline(s.Seed, nil), Resume: ckpts[s.ID],
		}
		if err := m2.Register(spec); err != nil {
			t.Fatalf("re-register %s: %v", s.ID, err)
		}
	}
	for _, st := range m2.Snapshot() {
		if st.Frames != cut {
			t.Fatalf("%s resumed at frame %d, want %d (drain left frames queued)", st.ID, st.Frames, cut)
		}
	}
	for _, s := range streams {
		for f := cut; f < frames; f++ {
			if err := m2.Push(s.ID, ingestFrame(f), s.Video.Detections[f]); err != nil {
				t.Fatalf("push %s frame %d after resume: %v", s.ID, f, err)
			}
		}
	}
	for _, s := range streams {
		res, err := m2.Finish(s.ID)
		if err != nil {
			t.Fatalf("finish %s: %v", s.ID, err)
		}
		if res.FramesProcessed != frames {
			t.Fatalf("%s processed %d frames across drain+resume, want %d", s.ID, res.FramesProcessed, frames)
		}
		engine, oracle := testPipeline(s.Seed, nil)()
		ref, err := ingest.New(engine, oracle, testIngestCfg(s.Seed, 40, 3))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < frames; f++ {
			ref.PushAt(ingestFrame(f), s.Video.Detections[f])
		}
		ref.Close()
		if got, want := res.Fingerprint(), ref.Result().Fingerprint(); got != want {
			t.Errorf("%s: drained+resumed fingerprint %s != sequential %s", s.ID, got, want)
		}
	}
	m2.Shutdown()
	checkNoGoroutineLeak(t, before)
}

// TestDrainClosesIntake pins the protocol surface of a drain in
// progress: while queued frames are still flushing, Push fails with
// ErrDraining and Register refuses new streams with ErrDraining.
func TestDrainClosesIntake(t *testing.T) {
	before := runtime.NumGoroutine()
	streams, err := loadgen.Generate(loadgen.Config{Seed: 43, Streams: 2, Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b := streams[0], streams[1]

	// One worker, and OnWindow blocks the first closed window: stream a's
	// turn wedges mid-flush (outside the manager lock), holding the drain
	// open while the test probes the intake surface.
	release := make(chan struct{})
	var once sync.Once
	m := NewManager(Config{
		Workers: 1, TurnFrames: 16, DefaultQueueCap: 64,
		OnWindow: func(string, ingest.WindowResult, time.Duration) {
			once.Do(func() { <-release })
		},
	})
	for _, s := range []loadgen.Stream{a, b} {
		spec := StreamSpec{ID: s.ID, Ingest: testIngestCfg(s.Seed, 8, 0), Pipeline: testPipeline(s.Seed, nil)}
		if err := m.Register(spec); err != nil {
			t.Fatalf("register %s: %v", s.ID, err)
		}
	}
	// Eight frames close stream a's first window inside one turn, so the
	// worker blocks in OnWindow with the turn still active.
	for f := 0; f < 8; f++ {
		if err := m.Push(a.ID, ingestFrame(f), a.Video.Detections[f]); err != nil {
			t.Fatalf("push %s frame %d: %v", a.ID, f, err)
		}
	}

	drained := make(chan map[string][]byte, 1)
	go func() {
		ckpts, err := m.Drain(context.Background())
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		drained <- ckpts
	}()

	// Poll stream b until the drain goroutine has closed intake; pushes
	// accepted in the gap simply flush with the drain.
	waitFor(t, func() bool {
		f := len(b.Video.Detections) - 1
		err := m.Push(b.ID, ingestFrame(f), b.Video.Detections[f])
		if err == nil {
			return false
		}
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("push during drain: got %v, want ErrDraining", err)
		}
		return true
	}, "push to fail with ErrDraining")
	spec := StreamSpec{ID: "late", Ingest: testIngestCfg(99, 8, 0), Pipeline: testPipeline(99, nil)}
	if err := m.Register(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("register during drain: got %v, want ErrDraining", err)
	}

	close(release)
	ckpts := <-drained
	if _, ok := ckpts[a.ID]; !ok {
		t.Fatalf("drain checkpoints missing %s: %v", a.ID, ckpts)
	}
	if _, ok := ckpts[b.ID]; !ok {
		t.Fatalf("drain checkpoints missing %s: %v", b.ID, ckpts)
	}
	checkNoGoroutineLeak(t, before)
}

// TestDrainAbortStillCheckpoints pins the deadline contract: an
// already-expired context aborts the flush, but Drain still waits out
// in-flight turns and seals frame-boundary checkpoints covering
// whatever was processed; replaying the remainder against them is
// bit-identical to the uninterrupted run (the at-least-once story).
func TestDrainAbortStillCheckpoints(t *testing.T) {
	before := runtime.NumGoroutine()
	const frames = 120
	streams, err := loadgen.Generate(loadgen.Config{Seed: 47, Streams: 1, Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	s := streams[0]

	m := NewManager(Config{Workers: 1, TurnFrames: 4, DefaultQueueCap: frames})
	spec := StreamSpec{ID: s.ID, Ingest: testIngestCfg(s.Seed, 30, 0), Pipeline: testPipeline(s.Seed, nil)}
	if err := m.Register(spec); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		if err := m.Push(s.ID, ingestFrame(f), s.Video.Detections[f]); err != nil {
			t.Fatalf("push frame %d: %v", f, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpts, err := m.Drain(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted drain: got %v, want context.Canceled", err)
	}
	ckpt, ok := ckpts[s.ID]
	if !ok {
		t.Fatalf("aborted drain sealed no checkpoint for %s", s.ID)
	}
	checkNoGoroutineLeak(t, before)

	// Resume and replay everything past the restored cursor — exactly
	// what an at-least-once client does after a crashed daemon.
	m2 := NewManager(Config{Workers: 1, TurnFrames: 4, DefaultQueueCap: frames})
	spec.Resume = ckpt
	if err := m2.Register(spec); err != nil {
		t.Fatalf("resume register: %v", err)
	}
	cursor := m2.Snapshot()[0].Frames
	if cursor < 0 || cursor > frames {
		t.Fatalf("resumed cursor %d out of range [0,%d]", cursor, frames)
	}
	for f := cursor; f < frames; f++ {
		if err := m2.Push(s.ID, ingestFrame(f), s.Video.Detections[f]); err != nil {
			t.Fatalf("replay frame %d: %v", f, err)
		}
	}
	res, err := m2.Finish(s.ID)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if res.FramesProcessed != frames {
		t.Fatalf("processed %d frames after abort+replay, want %d", res.FramesProcessed, frames)
	}
	engine, oracle := testPipeline(s.Seed, nil)()
	ref, err := ingest.New(engine, oracle, testIngestCfg(s.Seed, 30, 0))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		ref.PushAt(ingestFrame(f), s.Video.Detections[f])
	}
	ref.Close()
	if got, want := res.Fingerprint(), ref.Result().Fingerprint(); got != want {
		t.Errorf("abort+replay fingerprint %s != sequential %s", got, want)
	}
	m2.Shutdown()
	checkNoGoroutineLeak(t, before)
}

// TestDrainCancelledCtxWhenIdle pins the abort contract when nothing is
// left to flush: a ctx already cancelled when Drain starts makes Drain
// return ctx's error even though the queues are drained, and the idle
// stream still gets its final checkpoint.
func TestDrainCancelledCtxWhenIdle(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{Workers: 1})
	spec := StreamSpec{ID: "idle", Ingest: testIngestCfg(1, 8, 0), Pipeline: testPipeline(1, nil)}
	if err := m.Register(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpts, err := m.Drain(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with a cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, ok := ckpts["idle"]; !ok {
		t.Fatal("drain with a cancelled ctx sealed no checkpoint for the idle stream")
	}
	checkNoGoroutineLeak(t, before)
}

// TestDrainEmptyManager pins the degenerate case: draining a manager
// with no streams returns an empty map and shuts the manager down.
func TestDrainEmptyManager(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{Workers: 1})
	ckpts, err := m.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(ckpts) != 0 {
		t.Fatalf("drain of empty manager returned %v", ckpts)
	}
	if err := m.Register(StreamSpec{ID: "x", Ingest: testIngestCfg(1, 8, 0), Pipeline: testPipeline(1, nil)}); !errors.Is(err, ErrStopped) {
		t.Fatalf("register after drain: got %v, want ErrStopped", err)
	}
	checkNoGoroutineLeak(t, before)
}
