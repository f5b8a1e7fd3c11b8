package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/fault"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// equivScene is a compact multi-window scene for the equivalence suite:
// 600 frames at L=200 gives 6 half-overlapping windows, small enough to
// run the full algorithm × seed × workers matrix.
func equivScene(t *testing.T, seed uint64) (*synth.Video, *video.TrackSet) {
	t.Helper()
	cfg := synth.Config{
		Seed: seed, Name: "equiv", NumFrames: 600, Width: 900, Height: 700,
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

// equivAlgorithm is one entry of the equivalence suite's algorithm
// matrix.
type equivAlgorithm struct {
	name string
	mk   func() Algorithm
}

// equivAlgorithms is the algorithm matrix of the equivalence suite:
// every selection algorithm RunPipeline supports, seeded where the
// algorithm is randomised.
func equivAlgorithms(seed uint64) []equivAlgorithm {
	return []equivAlgorithm{
		{"TMerge", func() Algorithm {
			cfg := DefaultTMergeConfig(seed)
			cfg.TauMax = 1500
			return NewTMerge(cfg)
		}},
		{"TMerge-B", func() Algorithm {
			cfg := DefaultTMergeConfig(seed)
			cfg.TauMax = 1500
			cfg.Batch = 16
			return NewTMerge(cfg)
		}},
		{"BL", func() Algorithm { return NewBaselineB(1 << 16) }},
		{"PS", func() Algorithm { return NewPS(0.3, seed) }},
		{"LCB", func() Algorithm { return NewLCB(1500, seed) }},
	}
}

// runWorkersVariants runs the sequential reference (referencePipeline)
// once, then the window engine once per worker count, each on a fresh
// oracle built by mkOracle, and asserts every engine result — the full
// PipelineResult (merged track set included), the oracle's end state
// (stats + cache), and the fingerprint — is bit-identical to the
// reference.
func runWorkersVariants(t *testing.T, ts *video.TrackSet, numFrames int, mkAlgo func() Algorithm, mkOracle func() *reid.Oracle, base PipelineConfig) {
	t.Helper()
	workerCounts := []int{1, 2, runtime.NumCPU()}
	if runtime.NumCPU() < 3 {
		workerCounts = []int{1, 2, 4}
	}

	run := func(workers int, runner WindowRunner) (*PipelineResult, reid.OracleState) {
		cfg := base
		cfg.Algorithm = mkAlgo()
		cfg.Workers = workers
		oracle := mkOracle()
		res, err := tryRunPipeline(ts, numFrames, oracle, cfg, runner)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		return res, oracle.State()
	}
	ref, refState := run(1, sequentialWindows)
	for _, workers := range workerCounts {
		res, state := run(workers, RunWindows)
		if ref.Fingerprint() != res.Fingerprint() {
			t.Errorf("Workers=%d: fingerprint diverged from the sequential reference", workers)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("Workers=%d: PipelineResult diverged from the sequential reference:\nref:  %+v\ngot:  %+v",
				workers, summarize(ref), summarize(res))
		}
		if !reflect.DeepEqual(refState, state) {
			t.Errorf("Workers=%d: oracle end state (stats/cache) diverged: ref stats %+v, got %+v",
				workers, refState.Stats, state.Stats)
		}
	}
}

// summarize compresses a result for failure messages.
func summarize(r *PipelineResult) string {
	return fmt.Sprintf("windows=%d REC=%v stats=%+v virtual=%v degraded=%d resilience=%+v merged=%d",
		len(r.Windows), r.REC, r.Stats, r.Virtual, r.DegradedWindows, r.Resilience, len(r.Merged.Sorted()))
}

// TestParallelEquivalence: Workers ∈ {1, 2, NumCPU} must be bit-identical
// to the sequential reference across the full algorithm matrix and
// several scene/model seeds, in both Verify modes.
func TestParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{7, 19} {
		seed := seed
		v, ts := equivScene(t, seed)
		for _, ea := range equivAlgorithms(seed) {
			ea := ea
			t.Run(fmt.Sprintf("seed%d/%s", seed, ea.name), func(t *testing.T) {
				t.Parallel()
				runWorkersVariants(t, ts, v.NumFrames, ea.mk,
					func() *reid.Oracle { return newFixtureOracle(seed) },
					PipelineConfig{WindowLen: 200, K: 0.1, Verify: seed%2 == 1})
			})
		}
	}
}

// TestParallelEquivalenceWholeVideo: the single-window (WindowLen <= 0)
// pass must match the sequential reference at every workers setting.
func TestParallelEquivalenceWholeVideo(t *testing.T) {
	v, ts := equivScene(t, 7)
	for _, ea := range equivAlgorithms(3) {
		ea := ea
		t.Run(ea.name, func(t *testing.T) {
			t.Parallel()
			runWorkersVariants(t, ts, v.NumFrames, ea.mk,
				func() *reid.Oracle { return newFixtureOracle(7) },
				PipelineConfig{WindowLen: 0, K: 0.1})
		})
	}
}

// TestParallelEquivalenceUnderFault: a scripted outage on a resilient
// flaky device — retries, backoff jitter, breaker trips, probes, and
// degraded spatial-prior windows all included — must reproduce the
// sequential reference bit-identically at every worker count: identical
// reports and degraded flags, identical resilience counters, identical
// fault-injector accounting.
func TestParallelEquivalenceUnderFault(t *testing.T) {
	v, ts := faultScene(t)
	for _, ea := range equivAlgorithms(7) {
		ea := ea
		t.Run(ea.name, func(t *testing.T) {
			t.Parallel()
			var flakies []*fault.Flaky
			mkOracle := func() *reid.Oracle {
				flaky := fault.NewFlaky(device.NewCPU(device.DefaultCPU), fault.Config{
					Schedule: fault.NewSchedule(fault.Outage{From: 2, To: 6}),
				})
				flakies = append(flakies, flaky)
				rd := device.NewResilientDevice(flaky,
					device.RetryPolicy{MaxAttempts: 4, Jitter: -1},
					device.BreakerConfig{Threshold: 3, Cooldown: -1, CooldownRejections: -1},
					11)
				return reid.NewOracle(reid.NewModel(7, testDim), rd)
			}
			runWorkersVariants(t, ts, v.NumFrames, ea.mk, mkOracle,
				PipelineConfig{WindowLen: 200, K: 0.1})
			for i := 1; i < len(flakies); i++ {
				if a, b := flakies[0].Counters(), flakies[i].Counters(); a != b {
					t.Errorf("fault injector counters diverged: run 0 %+v, run %d %+v", a, i, b)
				}
			}
		})
	}
}

// TestParallelEquivalenceCacheDisabled: the cache-ablation configuration
// exercises the no-cache replay path.
func TestParallelEquivalenceCacheDisabled(t *testing.T) {
	v, ts := equivScene(t, 7)
	for _, ea := range equivAlgorithms(3) {
		ea := ea
		t.Run(ea.name, func(t *testing.T) {
			t.Parallel()
			runWorkersVariants(t, ts, v.NumFrames, ea.mk,
				func() *reid.Oracle {
					o := newFixtureOracle(7)
					o.SetCacheEnabled(false)
					return o
				},
				PipelineConfig{WindowLen: 200, K: 0.1})
		})
	}
}

// TestParallelWorkersValidation: negative worker counts are rejected,
// zero resolves to NumCPU.
func TestParallelWorkersValidation(t *testing.T) {
	cfg := PipelineConfig{WindowLen: 200, K: 0.1, Algorithm: NewBaseline(), Workers: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("Workers=-1 accepted")
	}
	if got := EffectiveWorkers(0); got != runtime.NumCPU() {
		t.Errorf("EffectiveWorkers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := EffectiveWorkers(3); got != 3 {
		t.Errorf("EffectiveWorkers(3) = %d, want 3", got)
	}
}
