package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// The offline workload: the paper's batch job. PathTrack-like videos
// (the profile's L=2000 windows give pair universes of roughly 500 to
// 1,100 pairs) are tracked during set-up, then each timed repetition
// runs every video through core.TryRunPipeline with TMerge and
// Workers = NumCPU, each video on a fresh oracle (cold feature cache).
const (
	offlineVideos = 8
	offlineTauMax = 2000
	offlineK      = 0.05
)

type offlineInput struct {
	videos []*synth.Video
	tracks []*video.TrackSet
	window int
	model  *reid.Model
}

func buildOffline(seed uint64) (*offlineInput, error) {
	p := dataset.PathTrackLike(seed)
	p.NumVideos = offlineVideos
	ds, err := p.Generate()
	if err != nil {
		return nil, err
	}
	in := &offlineInput{
		videos: ds.Videos,
		window: ds.WindowLen,
		model:  newModel(),
	}
	for _, v := range ds.Videos {
		in.tracks = append(in.tracks, track.Tracktor().Track(v.Detections))
	}
	return in, nil
}

// offlineJob is one video's pipeline pass.
type offlineJob struct {
	wall        time.Duration
	res         *core.PipelineResult
	fingerprint string
	submissions int64
}

// runVideo runs video i through the pipeline with the given worker
// count; tr, when non-nil, decorates the algorithm and device and
// times the call.
func (in *offlineInput) runVideo(i, workers int, tr *tracer) (offlineJob, error) {
	dev := wrapDevice(device.NewCPU(device.DefaultCPU), tr)
	oracle := reid.NewOracle(in.model, dev)
	cfg := core.PipelineConfig{
		WindowLen: in.window,
		K:         offlineK,
		Algorithm: wrapAlgo(newTMerge(offlineTauMax), tr, nil),
		Workers:   workers,
	}
	start := time.Now()
	span := tr.begin()
	res, err := core.TryRunPipeline(in.tracks[i], in.videos[i].NumFrames, oracle, cfg)
	tr.end("core.pipeline", span)
	wall := time.Since(start)
	if err != nil {
		return offlineJob{}, fmt.Errorf("video %d: %w", i, err)
	}
	return offlineJob{wall: wall, res: res, fingerprint: res.Fingerprint(), submissions: dev.Submissions()}, nil
}

// offlineRep is one timed repetition over every video.
type offlineRep struct {
	wall    time.Duration
	frames  int
	virtual time.Duration
	jobs    []offlineJob
}

func (in *offlineInput) rep(workers int, tr *tracer) (offlineRep, error) {
	var r offlineRep
	for i := range in.videos {
		j, err := in.runVideo(i, workers, tr)
		if err != nil {
			return r, err
		}
		r.wall += j.wall
		r.frames += j.res.FramesProcessed
		r.virtual += j.res.Virtual
		r.jobs = append(r.jobs, j)
	}
	return r, nil
}

func runOffline(opt options) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	var in *offlineInput
	build := func() (err error) {
		in, err = buildOffline(opt.seed)
		return err
	}
	var setup setupClock
	if err := setup.time(build, 2); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()

	// Untraced repetitions: the whole measuring time, or its first half
	// in a traced run (the baseline the tracing overhead is taken from).
	plain := opt.seconds
	if opt.trace {
		plain = opt.seconds / 2
	}
	var reps []offlineRep
	var peaks []float64
	heap := startHeapSampler(5 * time.Millisecond)
	rt0 := readRuntime()
	start := time.Now()
	for len(reps) == 0 || !deadline(start, plain) {
		r, err := in.rep(workers, nil)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		reps = append(reps, r)
		peaks = append(peaks, heap.segment())
	}
	rt1 := readRuntime()
	heap.Stop()

	want := make([]string, len(in.videos))
	for i, j := range reps[0].jobs {
		want[i] = j.fingerprint
	}
	var fps, lats []float64
	for n, r := range reps {
		fps = append(fps, float64(r.frames)/r.wall.Seconds())
		fmt.Fprintf(os.Stderr, "e2ebench: offline repetition %d: %.0f frames/s\n", n, fps[n])
		for i, j := range r.jobs {
			lats = append(lats, ms(j.wall))
			out.check(j.fingerprint == want[i], "offline rep %d video %d fingerprint %.12s, first rep %.12s", n, i, j.fingerprint, want[i])
		}
	}

	// Reference: the same videos with Workers = 1 must fingerprint
	// identically (the executor's determinism contract).
	for i := range in.videos {
		j, err := in.runVideo(i, 1, nil)
		if err != nil {
			return nil, err
		}
		out.check(j.fingerprint == want[i], "offline video %d Workers=1 fingerprint %.12s, Workers=%d %.12s", i, j.fingerprint, workers, want[i])
	}

	var rec float64
	var deg int
	for _, j := range reps[0].jobs {
		rec += j.res.REC
		deg += j.res.DegradedWindows
	}
	out.check(deg == 0, "offline: %d degraded windows without injected faults", deg)

	m := out.metrics
	m["wall_fps"] = quantile(fps, 0.5)
	m["device.virtual_fps"] = float64(reps[0].frames) / reps[0].virtual.Seconds()
	m["core.rec_k"] = rec / float64(len(in.videos))
	m["latency_p50_ms"] = quantile(lats, 0.5)
	m["latency_ms.p90"] = quantile(lats, 0.9)
	m["latency_ms.p99"] = quantile(lats, 0.99)
	m["runtime.peak_heap_mb"] = quantile(peaks, 0.5)
	if !opt.trace {
		if err := setup.time(build, 1); err != nil {
			return nil, err
		}
		m["setup_s"] = setup.median()
		return out, nil
	}

	frames := 0
	for _, r := range reps {
		frames += r.frames
	}
	runtimeMetrics(m, rt0, rt1, frames)

	// Traced repetitions over the second half.
	tr := newTracer()
	var traced []offlineRep
	tstart := time.Now()
	for len(traced) == 0 || !deadline(tstart, opt.seconds-plain) {
		r, err := in.rep(workers, tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, r)
	}
	twall := time.Since(tstart)
	var tfps []float64
	var st reid.Stats
	var subs int64
	var virtual time.Duration
	for n, r := range traced {
		tfps = append(tfps, float64(r.frames)/r.wall.Seconds())
		for i, j := range r.jobs {
			out.check(j.fingerprint == want[i], "offline traced rep %d video %d fingerprint %.12s, untraced %.12s", n, i, j.fingerprint, want[i])
			if n == 0 {
				st.Extractions += j.res.Stats.Extractions
				st.CacheHits += j.res.Stats.CacheHits
				st.Distances += j.res.Stats.Distances
				subs += j.submissions
				virtual += j.res.Virtual
				m["core.degraded_windows"] += float64(j.res.DegradedWindows)
			}
		}
	}
	tr.layerMetrics(m)
	// Per-repetition counts: one repetition's oracle and device work.
	oracleMetrics(m, st, subs, virtual)
	pipeline := tr.total("core.pipeline")
	m["core.select_busy_s"] /= float64(len(traced))
	m["device.submit_busy_s"] /= float64(len(traced))
	if pipeline > 0 {
		m["core.worker_busy_frac"] = tr.total("core.select").Seconds() / (pipeline.Seconds() * float64(workers))
	}
	m["trace.overhead_frac"] = quantile(fps, 0.5)/quantile(tfps, 0.5) - 1
	m["trace.unattributed_frac"] = 1 - pipeline.Seconds()/twall.Seconds()
	return out, nil
}
