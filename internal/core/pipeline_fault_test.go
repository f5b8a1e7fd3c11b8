package core

import (
	"reflect"
	"testing"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// faultScene is a longer variant of pipelineScene: 800 frames so L=200
// partitions into 8 half-overlapping windows, enough to watch the breaker
// trip, re-trip on a failed probe, and recover mid-run.
func faultScene(t *testing.T) (*synth.Video, *video.TrackSet) {
	t.Helper()
	cfg := synth.Config{
		Seed: 77, Name: "fault", NumFrames: 800, Width: 900, Height: 700,
		ArrivalRate: 0.04, MaxObjects: 8, MinSpan: 60, MaxSpan: 250,
		SpeedMin: 0.5, SpeedMax: 2, SizeMin: 60, SizeMax: 100,
		AppearanceDim: testDim, AppearanceNoise: 0.07, PosAppearanceWeight: 0.3,
		OcclusionCoverage: 0.45, MissProb: 0.02,
		GlareRate: 0.012, GlareDuration: 40, GlareSize: 250,
	}
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v, track.Tracktor().Track(v.Detections)
}

// TestPipelineSurvivesScriptedOutage is the end-to-end fault drill: a
// scripted device outage mid-run must not stall or drop any window. The
// algorithm is BL-B with one batch per window, so each nonempty window is
// exactly one logical submission and the whole trace is computable by
// hand:
//
//	attempt 0, 1        windows 0, 1 succeed          (breaker closed)
//	attempt 2, 3, 4     window 2: three failures      -> trip, degraded
//	attempt 5           window 3: probe fails         -> re-trip, degraded
//	attempt 6           window 4: probe succeeds      -> closed
//	attempt 7...        windows 5-7 succeed normally
//
// with RetryPolicy.MaxAttempts=4 (never reached: the Threshold=3 breaker
// trips first), zero cooldown (probe immediately on the next submission),
// and a flaky outage covering attempt indices [2, 6).
func TestPipelineSurvivesScriptedOutage(t *testing.T) {
	v, ts := faultScene(t)
	cfg := PipelineConfig{
		WindowLen: 200,
		K:         0.1,
		Algorithm: NewBaselineB(1 << 20), // one submission per window
	}

	// Fault-free reference run.
	ref := RunPipeline(ts, v.NumFrames, newFixtureOracle(7), cfg)
	for _, w := range ref.Windows {
		if w.Pairs == 0 {
			t.Fatalf("window %d has no pairs; the submission trace needs every window nonempty", w.Window.Index)
		}
	}
	if len(ref.Windows) != 8 {
		t.Fatalf("got %d windows, want 8", len(ref.Windows))
	}

	// Faulty runs: same scene and model over a scripted-outage device,
	// once on the window engine and once on the sequential reference.
	faulty := func() (*fault.Flaky, *device.ResilientDevice, *reid.Oracle) {
		flaky := fault.NewFlaky(device.NewCPU(device.DefaultCPU), fault.Config{
			Schedule: fault.NewSchedule(fault.Outage{From: 2, To: 6}),
		})
		rd := device.NewResilientDevice(flaky,
			device.RetryPolicy{MaxAttempts: 4, Jitter: -1},
			device.BreakerConfig{Threshold: 3, Cooldown: -1, CooldownRejections: -1},
			11)
		return flaky, rd, reid.NewOracle(reid.NewModel(7, testDim), rd)
	}
	flaky, rd, oracle := faulty()
	res := RunPipeline(ts, v.NumFrames, oracle, cfg)
	refFlaky, _, refOracle := faulty()
	seq, err := referencePipeline(ts, v.NumFrames, refOracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, res) || flaky.Counters() != refFlaky.Counters() {
		t.Errorf("faulty run diverged from the sequential reference:\nref:  %s\ngot:  %s", summarize(seq), summarize(res))
	}

	if len(res.Windows) != len(ref.Windows) {
		t.Fatalf("faulty run produced %d windows, reference %d", len(res.Windows), len(ref.Windows))
	}
	for i, w := range res.Windows {
		wantDegraded := i == 2 || i == 3
		if w.Degraded != wantDegraded {
			t.Errorf("window %d: Degraded = %v, want %v", i, w.Degraded, wantDegraded)
		}
		if len(w.Selected) == 0 {
			t.Errorf("window %d selected nothing; degraded windows must still rank", i)
		}
		if !wantDegraded {
			refSel := ref.Windows[i].Selected
			if len(w.Selected) != len(refSel) {
				t.Errorf("window %d: %d selected, reference %d", i, len(w.Selected), len(refSel))
				continue
			}
			for j := range w.Selected {
				if w.Selected[j] != refSel[j] {
					t.Errorf("window %d pos %d: selection diverged from fault-free run: %v vs %v",
						i, j, w.Selected[j], refSel[j])
				}
			}
		}
	}
	if res.DegradedWindows != 2 {
		t.Errorf("DegradedWindows = %d, want 2", res.DegradedWindows)
	}

	want := device.ResilientCounters{
		Submissions: 8,
		Attempts:    10, // windows 0,1 (2) + window 2 (3) + probes (2) + windows 5-7 (3)
		Retries:     2,
		Failures:    4,
		Rejected:    0,
		Trips:       2,
		Probes:      2,
	}
	if got := res.Resilience; got != want {
		t.Errorf("Resilience = %+v, want %+v", got, want)
	}
	if fc := flaky.Counters(); fc.Outages != 4 {
		t.Errorf("flaky outages = %d, want 4", fc.Outages)
	}
	if st := rd.State(); st != device.BreakerClosed {
		t.Errorf("breaker finished %v, want closed", st)
	}

	// The degraded run merged something in every window and its recall is
	// still a valid number; no window was dropped on the floor.
	for _, w := range res.Windows {
		if w.Recall < 0 || w.Recall > 1 {
			t.Errorf("window %d recall = %v", w.Window.Index, w.Recall)
		}
	}
}

// TestPipelineDegradedMatchesSpatialRanking: a degraded window's selection
// must be exactly the spatial-prior ranking of its pair universe.
func TestPipelineDegradedMatchesSpatialRanking(t *testing.T) {
	v, ts := faultScene(t)
	cfg := PipelineConfig{
		WindowLen: 200,
		K:         0.1,
		Algorithm: NewBaselineB(1 << 20),
	}
	// Outage covering everything: every window degrades.
	flaky := fault.NewFlaky(device.NewCPU(device.DefaultCPU), fault.Config{
		Schedule: fault.NewSchedule(fault.Outage{From: 0, To: 1 << 40}),
	})
	rd := device.NewResilientDevice(flaky,
		device.RetryPolicy{MaxAttempts: 2, Jitter: -1},
		device.BreakerConfig{Threshold: 2, Cooldown: -1, CooldownRejections: -1},
		11)
	oracle := reid.NewOracle(reid.NewModel(7, testDim), rd)
	res := RunPipeline(ts, v.NumFrames, oracle, cfg)

	spatial := RunPipeline(ts, v.NumFrames, newFixtureOracle(7), PipelineConfig{
		WindowLen: 200,
		K:         0.1,
		Algorithm: NewSpatial(),
	})
	if res.DegradedWindows != len(res.Windows) {
		t.Fatalf("degraded %d of %d windows, want all", res.DegradedWindows, len(res.Windows))
	}
	for i, w := range res.Windows {
		want := spatial.Windows[i].Selected
		if len(w.Selected) != len(want) {
			t.Fatalf("window %d: %d selected, spatial reference %d", i, len(w.Selected), len(want))
		}
		for j := range w.Selected {
			if w.Selected[j] != want[j] {
				t.Errorf("window %d pos %d: %v, want spatial %v", i, j, w.Selected[j], want[j])
			}
		}
	}
	// The spatial fallback consumes no oracle work.
	if res.Stats.Extractions != 0 || res.Stats.Distances != 0 {
		t.Errorf("degraded run recorded oracle work: %+v", res.Stats)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	algo := NewBaseline()
	bad := []PipelineConfig{
		{WindowLen: 201, K: 0.05, Algorithm: algo}, // odd window
		{WindowLen: 200, K: 0, Algorithm: algo},    // K too small
		{WindowLen: 200, K: -0.1, Algorithm: algo}, // K negative
		{WindowLen: 200, K: 1.5, Algorithm: algo},  // K too large
		{WindowLen: 200, K: 0.05, Algorithm: nil},  // nil algorithm
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
		if _, err := TryRunPipeline(video.NewTrackSet(nil), 100, newFixtureOracle(7), cfg); err == nil {
			t.Errorf("case %d: TryRunPipeline accepted invalid config", i)
		}
	}
	good := []PipelineConfig{
		{WindowLen: 0, K: 0.05, Algorithm: algo}, // whole video
		{WindowLen: -1, K: 1, Algorithm: algo},   // whole video, K at edge
		{WindowLen: 200, K: 0.05, Algorithm: algo},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: valid config rejected: %v", i, err)
		}
	}
}

func TestRunPipelinePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid config")
		}
	}()
	RunPipeline(video.NewTrackSet(nil), 100, newFixtureOracle(7), PipelineConfig{
		WindowLen: 3, K: 0.05, Algorithm: NewBaseline(),
	})
}
