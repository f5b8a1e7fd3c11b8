package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/ingress"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// ServeBenchConfig pins one serving-layer benchmark: a deterministic
// loadgen fleet pushed through a serve.Manager once per stream count,
// measuring aggregate throughput and per-window latency under pool
// contention.
type ServeBenchConfig struct {
	// Seed is the loadgen base seed; stream i runs at
	// loadgen.StreamSeed(Seed, i).
	Seed uint64
	// StreamCounts lists the fleet sizes to measure, one result row each.
	StreamCounts []int
	// Frames is the per-stream frame count.
	Frames int
	// WindowLen is the per-stream ingest window length.
	WindowLen int
	// Workers is the shared pool size; 0 takes the serve default.
	Workers int
	// TurnFrames bounds a scheduling turn; 0 takes the serve default.
	TurnFrames int
	// QueueCap bounds each stream's frame queue; 0 takes the serve
	// default.
	QueueCap int
	// TauMax is the TMerge iteration budget; 0 keeps the config default.
	TauMax int
	// K is the candidate proportion.
	K float64
	// Transport selects how frames reach the manager: "inproc" (default,
	// also the zero value) pushes straight into serve.Manager; "http"
	// stands up the ingress HTTP server on a loopback listener and pushes
	// NDJSON batches through ingress.Client, so the row measures the wire
	// protocol's cost against the in-process path. Windows, frames, and
	// the fingerprint are identical across transports — only the wall
	// metrics move.
	Transport string
	// BatchFrames is the ingress client's push batch size for the "http"
	// transport; 0 defaults to 8. Ignored for "inproc".
	BatchFrames int
	// Clock reads wall time for the FPS and latency measurements. It must
	// be injected by the caller — cmd/benchrunner is on the determinism
	// allowlist, this package is not. Nil disables wall timing (FPS and
	// latency fields stay 0); windows, frames, and the fingerprint remain
	// fully deterministic.
	Clock func() time.Time
}

// DefaultServeBench is the pinned configuration the CI bench job runs:
// the 10- and 100-stream fleets the tentpole names, small per-stream
// frame counts so the 100-stream row stays inside a CI minute.
func DefaultServeBench() ServeBenchConfig {
	return ServeBenchConfig{
		Seed:         1234,
		StreamCounts: []int{10, 100},
		Frames:       120,
		WindowLen:    40,
		Workers:      4,
		K:            DefaultK,
	}
}

// ServeBenchResult is one row of the serving benchmark, NDJSON-encoded
// alongside the other experiments' rows. FPS and the latency quantiles
// are wall-clock measurements and vary run to run; Windows, Frames, and
// Fingerprint are deterministic functions of the configuration.
type ServeBenchResult struct {
	Experiment string `json:"experiment"`
	// Transport is "inproc" or "http" — rows of both transports share one
	// NDJSON stream, so the comparison is a filter on this field.
	Transport       string  `json:"transport"`
	Seed            uint64  `json:"seed"`
	Streams         int     `json:"streams"`
	Frames          int     `json:"frames"` // total across the fleet
	WindowLen       int     `json:"window_len"`
	Workers         int     `json:"workers"`
	Windows         int     `json:"windows"`
	DegradedWindows int     `json:"degraded_windows"`
	WallMS          float64 `json:"wall_ms,omitempty"`
	// AggFPS is aggregate fleet throughput: total frames / wall seconds.
	AggFPS float64 `json:"agg_fps,omitempty"`
	// P50LatencyMS / P99LatencyMS are quantiles over every window's
	// closing-push wall latency.
	P50LatencyMS float64 `json:"p50_latency_ms,omitempty"`
	P99LatencyMS float64 `json:"p99_latency_ms,omitempty"`
	// LeakedGoroutines is the goroutine-count delta across the run after
	// shutdown; non-zero fails the bench gate.
	LeakedGoroutines int `json:"leaked_goroutines"`
	// Fingerprint chains the per-stream result fingerprints in stream
	// order; it must be identical at every stream count (each stream's
	// pipeline is isolated, so fleet size cannot change results).
	Fingerprint string `json:"fingerprint"`
}

// serveBenchExperiment tags the rows in mixed NDJSON streams.
const serveBenchExperiment = "servebench"

// RunServeBench measures the fleet at every configured stream count and
// returns one row per count, in StreamCounts order. Stream videos are
// generated before any timing; the wall window covers push, scheduling,
// processing, and the final flushes. ctx bounds the http-transport arm's
// network operations; the in-process arm ignores it.
func RunServeBench(ctx context.Context, cfg ServeBenchConfig) ([]ServeBenchResult, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = 120
	}
	if cfg.WindowLen <= 0 {
		cfg.WindowLen = 40
	}
	if cfg.Transport == "" {
		cfg.Transport = "inproc"
	}
	if cfg.Transport != "inproc" && cfg.Transport != "http" {
		return nil, fmt.Errorf("bench: unknown servebench transport %q (want inproc or http)", cfg.Transport)
	}
	out := make([]ServeBenchResult, 0, len(cfg.StreamCounts))
	for _, n := range cfg.StreamCounts {
		row, err := runServeBenchOnce(ctx, cfg, n)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// serveTransport is how the benchmark's frames reach the manager: stream
// i's pushes, its flush once every frame is pushed, its finish, and the
// teardown of everything the transport started.
type serveTransport interface {
	push(i int, f video.FrameIndex, dets []video.BBox) error
	flush(i int) error
	finish(i int) (ingress.FinishResponse, error)
	stop()
}

// runServeBenchOnce measures one fleet size over cfg.Transport. The
// fleet, manager configuration and pipelines are the same for both
// transports, so windows, frames and the fingerprint are too; only the
// wall columns price the transport.
func runServeBenchOnce(ctx context.Context, cfg ServeBenchConfig, nStreams int) (ServeBenchResult, error) {
	row := ServeBenchResult{
		Experiment: serveBenchExperiment,
		Transport:  cfg.Transport,
		Seed:       cfg.Seed,
		Streams:    nStreams,
		WindowLen:  cfg.WindowLen,
		Workers:    cfg.Workers,
	}
	streams, err := loadgen.Generate(loadgen.Config{Seed: cfg.Seed, Streams: nStreams, Frames: cfg.Frames})
	if err != nil {
		return row, err
	}

	goroutinesBefore := runtime.NumGoroutine()
	var latMu sync.Mutex
	var lats []time.Duration
	sc := serve.Config{
		Workers:         cfg.Workers,
		TurnFrames:      cfg.TurnFrames,
		DefaultQueueCap: cfg.QueueCap,
		Now:             cfg.Clock,
		OnWindow: func(_ string, _ ingest.WindowResult, lat time.Duration) {
			latMu.Lock()
			lats = append(lats, lat)
			latMu.Unlock()
		},
	}
	var tr serveTransport
	if cfg.Transport == "http" {
		tr, err = startHTTPTransport(ctx, cfg, sc, streams)
	} else {
		tr, err = startInprocTransport(cfg, sc, streams)
	}
	if err != nil {
		return row, err
	}

	var start time.Time
	if cfg.Clock != nil {
		start = cfg.Clock()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, nStreams)
	for i, s := range streams {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f, dets := range s.Video.Detections {
				if err := tr.push(i, video.FrameIndex(f), dets); err != nil {
					errCh <- fmt.Errorf("bench: push %s frame %d: %w", s.ID, f, err)
					return
				}
			}
			if err := tr.flush(i); err != nil {
				errCh <- fmt.Errorf("bench: flush %s: %w", s.ID, err)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		tr.stop()
		return row, err
	}

	fp := sha256.New()
	for i, s := range streams {
		fin, err := tr.finish(i)
		if err != nil {
			tr.stop()
			return row, fmt.Errorf("bench: finish %s: %w", s.ID, err)
		}
		row.Frames += fin.Frames
		row.Windows += fin.Windows
		row.DegradedWindows += fin.DegradedWindows
		fmt.Fprintln(fp, fin.Fingerprint)
	}
	var wall time.Duration
	if cfg.Clock != nil {
		wall = cfg.Clock().Sub(start)
	}
	tr.stop()
	row.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	row.LeakedGoroutines = leakedGoroutines(goroutinesBefore)

	if wall > 0 {
		row.WallMS = float64(wall) / float64(time.Millisecond)
		row.AggFPS = float64(row.Frames) / wall.Seconds()
	}
	latMu.Lock()
	defer latMu.Unlock()
	if len(lats) > 0 && cfg.Clock != nil {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		row.P50LatencyMS = float64(quantile(lats, 0.50)) / float64(time.Millisecond)
		row.P99LatencyMS = float64(quantile(lats, 0.99)) / float64(time.Millisecond)
	}
	return row, nil
}

// serveBenchSpec is one stream's registration: its own TMerge instance
// and isolated pipeline, keyed by the stream's loadgen seed.
func serveBenchSpec(cfg ServeBenchConfig, id string, seed uint64) serve.StreamSpec {
	return serve.StreamSpec{
		ID: id,
		Ingest: ingest.Config{
			WindowLen: cfg.WindowLen,
			K:         cfg.K,
			Algorithm: core.NewTMerge(serveBenchTMerge(cfg, seed)),
		},
		Pipeline: func() (*track.Engine, *reid.Oracle) {
			model := reid.NewModel(seed^0x5EED, dataset.AppearanceDim)
			return track.Tracktor(), reid.NewOracle(model, device.NewCPU(device.DefaultCPU))
		},
	}
}

// serveBenchTMerge is the per-stream algorithm configuration.
func serveBenchTMerge(cfg ServeBenchConfig, seed uint64) core.TMergeConfig {
	tc := core.DefaultTMergeConfig(seed)
	if cfg.TauMax > 0 {
		tc.TauMax = cfg.TauMax
	}
	return tc
}

// quantile returns the q-quantile of sorted latencies (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// leakedGoroutines polls briefly for the goroutine count to return to
// its before-value, reporting the residual delta (0 when clean). The
// grace window absorbs goroutines that are mid-exit at shutdown.
func leakedGoroutines(before int) int {
	// Bounded poll (~2s at 5ms steps) rather than a wall-clock deadline,
	// keeping the bench layer free of time.Now.
	for i := 0; ; i++ {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return 0
		}
		if i >= 400 {
			return now - before
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ServeBench runs RunServeBench and prints the human table.
func ServeBench(ctx context.Context, w io.Writer, cfg ServeBenchConfig) ([]ServeBenchResult, error) {
	rows, err := RunServeBench(ctx, cfg)
	if err != nil {
		return nil, err
	}
	transport := cfg.Transport
	if transport == "" {
		transport = "inproc"
	}
	fmt.Fprintf(w, "Serving layer (%s) — %d frames/stream, L=%d, %d workers\n",
		transport, cfg.Frames, cfg.WindowLen, cfg.Workers)
	fmt.Fprintf(w, "%-8s %-8s %8s %8s %10s %10s %12s %12s %6s  %s\n",
		"streams", "via", "frames", "windows", "wall(ms)", "aggFPS", "p50 lat(ms)", "p99 lat(ms)", "leaks", "fingerprint")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-8s %8d %8d %10.1f %10.1f %12.3f %12.3f %6d  %s\n",
			r.Streams, r.Transport, r.Frames, r.Windows, r.WallMS, r.AggFPS, r.P50LatencyMS, r.P99LatencyMS, r.LeakedGoroutines, r.Fingerprint[:12])
	}
	return rows, nil
}

// CheckServeBench validates one run's rows: per-stream isolation means
// fleet size must not change any stream's result, so the first
// min(streams) fingerprints must agree… which cannot be checked across
// rows of different sizes from the chained digest alone. What the gate
// can and does check: every row produced windows, processed the full
// frame count, and leaked no goroutines.
func CheckServeBench(rows []ServeBenchResult, frames int) []string {
	var fails []string
	if len(rows) == 0 {
		return []string{"no servebench rows produced"}
	}
	for _, r := range rows {
		if want := r.Streams * frames; r.Frames != want {
			fails = append(fails, fmt.Sprintf("streams=%d processed %d frames, want %d", r.Streams, r.Frames, want))
		}
		if r.Windows == 0 {
			fails = append(fails, fmt.Sprintf("streams=%d closed no windows", r.Streams))
		}
		if r.LeakedGoroutines != 0 {
			fails = append(fails, fmt.Sprintf("streams=%d leaked %d goroutines at shutdown", r.Streams, r.LeakedGoroutines))
		}
	}
	return fails
}
