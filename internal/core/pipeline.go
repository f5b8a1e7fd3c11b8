package core

import (
	"fmt"
	"time"

	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// PipelineConfig configures one ingestion pass: windowing, the candidate
// budget K, and the selection algorithm.
type PipelineConfig struct {
	// WindowLen is the window length L in frames (must be even). Values
	// <= 0 treat the entire video as a single window, the configuration
	// the paper uses for MOT-17 and KITTI (§V-A).
	WindowLen int
	// K is the candidate-set proportion: each window reports the top
	// ⌈K·|Pc|⌉ pairs. The paper's default is 0.05.
	K float64
	// Algorithm selects the candidates.
	Algorithm Algorithm
	// Verify models the paper's optional human-inspection step (§I): when
	// true, only selected candidates that are truly polyonymous are
	// merged; false positives in the candidate set are rejected by the
	// inspector. The metric experiments of §V-G/H (Figures 11-13) assume
	// this workflow — identification quality is what the algorithms are
	// compared on, and merging a false candidate would corrupt tracks.
	Verify bool
	// Workers bounds the worker pool of the window engine (RunWindows):
	// 0 selects runtime.NumCPU(), 1 speculates every window on the
	// calling goroutine, and larger values speculate window selection
	// concurrently; certification and merging always run in canonical
	// window order. Every worker count produces bit-identical results
	// (DESIGN.md §10); Workers only trades wall-clock time. Negative
	// values are rejected by Validate.
	Workers int
}

// Validate rejects configurations that would otherwise misbehave deep in
// the pipeline: an odd positive WindowLen (the half-overlap would be
// inexact; previously a panic inside video.Partition), K outside (0, 1]
// (previously silently producing an empty or full candidate set), and a
// nil Algorithm (previously a nil-dereference panic mid-window).
// WindowLen <= 0 stays legal: it selects whole-video processing.
func (cfg PipelineConfig) Validate() error {
	if cfg.WindowLen > 0 && cfg.WindowLen%2 != 0 {
		return fmt.Errorf("core: window length must be even, got %d", cfg.WindowLen)
	}
	if cfg.K <= 0 || cfg.K > 1 {
		return fmt.Errorf("core: K must be in (0, 1], got %g", cfg.K)
	}
	if cfg.Algorithm == nil {
		return fmt.Errorf("core: nil selection algorithm")
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", cfg.Workers)
	}
	return nil
}

// WindowReport describes the processing of one window.
type WindowReport struct {
	Window   video.Window
	Pairs    int             // |Pc|
	Truth    int             // |P*c| (ground-truth polyonymous pairs)
	Selected []video.PairKey // P̂*c|K
	Recall   float64         // REC(P̂*c|K), Equation (3)
	// Degraded reports that the ReID device was unavailable for this
	// window (circuit breaker open or retry budget exhausted) and
	// Selected was ranked by the BetaInit spatial prior alone.
	Degraded bool
	// Events is this window's slice of the merger's ordered union log:
	// the effective unions committing this window caused, in commit
	// order. Replaying the concatenation across windows (ReplayEvents)
	// reproduces the pass's final identity map. Events is derived
	// bookkeeping and deliberately excluded from Fingerprint, which pins
	// the PR-4 replay hashes.
	Events []MergeEvent
}

// PipelineResult is the outcome of a full ingestion pass over one video.
type PipelineResult struct {
	Windows []WindowReport
	// Merged is the track set after rewriting IDs of all selected pairs.
	Merged *video.TrackSet
	// REC is the mean recall over windows with at least one true
	// polyonymous pair (windows with an empty P*c carry no signal and are
	// excluded from the average).
	REC float64
	// Stats is the oracle work performed by this pass.
	Stats reid.Stats
	// Virtual is the modeled device time consumed by this pass; FPS
	// figures in the harness are FramesProcessed / Virtual.
	Virtual         time.Duration
	FramesProcessed int
	// DegradedWindows counts the windows selected in degraded mode (see
	// WindowReport.Degraded).
	DegradedWindows int
	// Resilience is this pass's retry/breaker activity — the fault-path
	// counterpart of Stats. Zero unless the oracle runs on a
	// device.ResilientDevice.
	Resilience device.ResilientCounters
}

// FPS returns the modeled frames-per-second throughput of the pass.
func (r *PipelineResult) FPS() float64 {
	if r.Virtual <= 0 {
		return 0
	}
	return float64(r.FramesProcessed) / r.Virtual.Seconds()
}

// RunPipeline executes the identify-and-merge ingestion pass of §II over
// the tracker output: partition into half-overlapping windows, build Pc
// per Equation (1), select candidates with cfg.Algorithm, and merge. Truth
// (P*c, recall) is derived from the GTObject labels carried by the boxes;
// the selection algorithms never see those labels.
//
// RunPipeline panics on an invalid cfg; use TryRunPipeline to get the
// validation error instead.
func RunPipeline(tracks *video.TrackSet, numFrames int, oracle *reid.Oracle, cfg PipelineConfig) *PipelineResult {
	res, err := TryRunPipeline(tracks, numFrames, oracle, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// TryRunPipeline is RunPipeline with up-front configuration validation.
// Windows whose oracle submissions cannot complete (device breaker open,
// retry budget exhausted) are not dropped: they are selected in degraded
// mode by the BetaInit spatial prior alone and flagged in their
// WindowReport. Oracle-backed selection resumes as soon as the device
// recovers.
func TryRunPipeline(tracks *video.TrackSet, numFrames int, oracle *reid.Oracle, cfg PipelineConfig) (*PipelineResult, error) {
	return tryRunPipeline(tracks, numFrames, oracle, cfg, RunWindows)
}

// tryRunPipeline is TryRunPipeline with its windows run by run.
func tryRunPipeline(tracks *video.TrackSet, numFrames int, oracle *reid.Oracle, cfg PipelineConfig, run WindowRunner) (*PipelineResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &PipelineResult{FramesProcessed: numFrames}
	startStats := oracle.Stats()
	startClock := oracle.Device().Clock().Elapsed()
	rd := device.FindResilient(oracle.Device())
	var startRes device.ResilientCounters
	if rd != nil {
		startRes = rd.Counters()
	}

	var inspect func(*video.Pair) bool
	if cfg.Verify {
		inspect = motmetrics.Polyonymous
	}
	merger := NewMerger()
	jobs := planWindows(tracks, numFrames, cfg.WindowLen)
	run(cfg.Algorithm, cfg.K, oracle, merger, inspect, cfg.Workers, len(jobs),
		func(i int) *video.PairSet {
			j := &jobs[i]
			ps := video.BuildPairSet(j.w, j.cur, j.prev)
			j.pairs, j.truth = ps.Len(), motmetrics.PolyonymousPairs(ps)
			return ps
		},
		func(i int, w WindowOutcome) {
			j := &jobs[i]
			if w.Degraded {
				res.DegradedWindows++
			}
			res.Windows = append(res.Windows, WindowReport{
				Window:   j.w,
				Pairs:    j.pairs,
				Truth:    len(j.truth),
				Selected: w.Selected,
				Recall:   video.Recall(w.Selected, j.truth),
				Degraded: w.Degraded,
				Events:   w.Events,
			})
			j.truth = nil
		})

	res.Merged = merger.Apply(tracks)
	endStats := oracle.Stats()
	res.Stats = reid.Stats{
		Distances:   endStats.Distances - startStats.Distances,
		Extractions: endStats.Extractions - startStats.Extractions,
		CacheHits:   endStats.CacheHits - startStats.CacheHits,
	}
	res.Virtual = oracle.Device().Clock().Elapsed() - startClock
	if rd != nil {
		res.Resilience = rd.Counters().Sub(startRes)
	}

	var sum float64
	n := 0
	for _, w := range res.Windows {
		if w.Truth > 0 {
			sum += w.Recall
			n++
		}
	}
	if n > 0 {
		res.REC = sum / float64(n)
	} else {
		res.REC = 1
	}
	return res, nil
}

// windowJob is one window's fully-determined inputs: the window, the
// tracks whose first halves it owns (Tc), and the previous window's
// track list (the pair universe draws candidates across the overlap).
// All three are pure functions of the track set and the partition, so
// the whole job list can be materialised up front and processed in any
// order. pairs and truth (|Pc| and P*c) are filled in when the window's
// universe is built, and truth is released once the window is reported.
type windowJob struct {
	w     video.Window
	cur   []*video.Track
	prev  []*video.Track
	pairs int
	truth map[video.PairKey]bool
}

// planWindows materialises the window job list for one pass.
func planWindows(tracks *video.TrackSet, numFrames, windowLen int) []windowJob {
	if windowLen <= 0 {
		w := video.Window{Index: 0, Start: 0, End: video.FrameIndex(numFrames - 1)}
		return []windowJob{{w: w, cur: tracksInWhole(tracks)}}
	}
	part := video.Partition(numFrames, windowLen)
	jobs := make([]windowJob, len(part))
	for i, w := range part {
		jobs[i].w = w
		jobs[i].cur = video.WindowTracks(tracks, w)
		if i > 0 {
			jobs[i].prev = jobs[i-1].cur
		}
	}
	return jobs
}

// tracksInWhole returns all tracks in the deterministic order used for
// single-window processing.
func tracksInWhole(ts *video.TrackSet) []*video.Track {
	return ts.Sorted()
}
