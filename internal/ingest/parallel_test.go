package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// streamOutcome captures everything observable about one full streaming
// session, for bit-identity comparison across worker counts.
type streamOutcome struct {
	results    []WindowResult
	quarantine QuarantineReport
	oracle     reid.OracleState
	merged     []*video.Track
	checkpoint []byte
}

// streamAlgorithms is the ingest equivalence suite's algorithm matrix:
// every selection algorithm, seeded where the algorithm is randomised.
func streamAlgorithms() []struct {
	name string
	mk   func() core.Algorithm
} {
	tmerge := func(batch int) func() core.Algorithm {
		return func() core.Algorithm {
			cfg := core.DefaultTMergeConfig(5)
			cfg.TauMax = 1200
			cfg.Batch = batch
			return core.NewTMerge(cfg)
		}
	}
	return []struct {
		name string
		mk   func() core.Algorithm
	}{
		{"TMerge", tmerge(0)},
		{"TMerge-B", tmerge(16)},
		{"BL", func() core.Algorithm { return core.NewBaselineB(1 << 16) }},
		{"PS", func() core.Algorithm { return core.NewPS(0.3, 5) }},
		{"LCB", func() core.Algorithm { return core.NewLCB(1200, 5) }},
	}
}

// driveStream runs one full ingestion over the scene: a normal prefix,
// then a gap jumping several window boundaries at once (so one PushAt
// closes a multi-window batch — the path the worker pool actually
// takes), then a Close flush. reference runs the session's windows on
// the sequential reference instead of the window engine; workers is
// then irrelevant.
func driveStream(t *testing.T, v *synth.Video, algo core.Algorithm, workers int, faulty, reference bool) streamOutcome {
	t.Helper()
	var dev device.Device = device.NewCPU(device.DefaultCPU)
	if faulty {
		flaky := fault.NewFlaky(device.NewCPU(device.DefaultCPU), fault.Config{
			Schedule: fault.NewSchedule(fault.Outage{From: 3, To: 7}),
		})
		dev = device.NewResilientDevice(flaky,
			device.RetryPolicy{MaxAttempts: 2, Jitter: -1},
			device.BreakerConfig{Threshold: 2, Cooldown: -1, CooldownRejections: -1},
			11)
	}
	oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), dev)
	cfg := Config{
		WindowLen: 400,
		K:         0.05,
		Algorithm: algo,
		Workers:   workers,
	}
	if !faulty {
		// The clean runs also exercise the inspection path, with the
		// ground truth as inspector.
		cfg.Inspect = motmetrics.Polyonymous
	}
	newSession := New
	if reference {
		newSession = newReference
	}
	in, err := newSession(track.Tracktor(), oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Frames 0..1000: the ordinary one-window-at-a-time cadence.
	for f := 0; f <= 1000; f++ {
		in.PushAt(video.FrameIndex(f), v.Detections[f])
	}
	// One frame far ahead: the gap closes every window whose end the
	// cursor just passed, as one batch.
	last := len(v.Detections) - 1
	in.PushAt(video.FrameIndex(last), v.Detections[last])
	in.Close()

	ckpt, err := in.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return streamOutcome{
		results:    in.Results(),
		quarantine: in.Quarantine(),
		oracle:     oracle.State(),
		merged:     in.MergedTracks().Sorted(),
		checkpoint: ckpt,
	}
}

// TestIngestParallelEquivalence: the streaming path must be bit-identical
// to the sequential reference at every worker count, for every
// algorithm, with and without a scripted outage — window results,
// quarantine ledger, oracle stats/cache, merged tracks, and the
// serialised checkpoint.
func TestIngestParallelEquivalence(t *testing.T) {
	v := streamScene(t)
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			for _, sa := range streamAlgorithms() {
				t.Run(sa.name, func(t *testing.T) {
					t.Parallel()
					ref := driveStream(t, v, sa.mk(), 1, faulty, true)
					if n := len(ref.results); n < 8 {
						t.Fatalf("reference run closed %d windows; the scene should close at least 8", n)
					}
					degraded := 0
					for _, r := range ref.results {
						if r.Degraded {
							degraded++
						}
					}
					if faulty != (degraded > 0) {
						t.Fatalf("reference run degraded %d windows; want some exactly when faulty (%v)", degraded, faulty)
					}
					for _, workers := range []int{1, 2, 4} {
						got := driveStream(t, v, sa.mk(), workers, faulty, false)
						if !reflect.DeepEqual(ref.results, got.results) {
							t.Errorf("Workers=%d: window results diverged from the sequential reference", workers)
						}
						if !reflect.DeepEqual(ref.quarantine, got.quarantine) {
							t.Errorf("Workers=%d: quarantine ledger diverged", workers)
						}
						if !reflect.DeepEqual(ref.oracle, got.oracle) {
							t.Errorf("Workers=%d: oracle state diverged: ref stats %+v, got %+v",
								workers, ref.oracle.Stats, got.oracle.Stats)
						}
						if !reflect.DeepEqual(ref.merged, got.merged) {
							t.Errorf("Workers=%d: merged track set diverged", workers)
						}
						if !bytes.Equal(ref.checkpoint, got.checkpoint) {
							t.Errorf("Workers=%d: checkpoint bytes diverged", workers)
						}
					}
				})
			}
		})
	}
}

// TestIngestWorkersValidation: negative worker counts are rejected at
// session construction.
func TestIngestWorkersValidation(t *testing.T) {
	oracle := reid.NewOracle(reid.NewModel(7, dataset.AppearanceDim), device.NewCPU(device.DefaultCPU))
	_, err := New(track.Tracktor(), oracle, Config{
		WindowLen: 400,
		K:         0.05,
		Algorithm: core.NewSpatial(),
		Workers:   -2,
	})
	if err == nil {
		t.Fatal("Workers=-2 accepted")
	}
}
