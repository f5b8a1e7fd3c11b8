// Command e2ebench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed measuring time and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (wall time, measured
// without any instrumentation); with -trace 1 they are the per-layer
// set, taken from a run that wraps the program's public injection
// points and public calls in timing spans. The line before the result
// records the environment (CPU count, GOMAXPROCS, Go version, seed).
//
// Workloads (see README.md for why each exists and which layer each
// metric attributes):
//
//	offline  PathTrack-like videos through core.TryRunPipeline
//	fleet    loadgen streams as NDJSON over loopback HTTP into ingress.Server
//	history  one long longhorizon stream into a history-mode ingest.Ingestor
//
// The benchmark measures the program from outside: it reuses the
// program's generators and calls only exported API.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/stats"
)

// The program under test is configured identically in every run: one
// ReID model and one TMerge seed. Only the workload's inputs (videos,
// camera streams) come from -seed, so runs with different seeds differ
// in what the program is given, not in what the program is.
const (
	modelSeed  = 0x5EED
	tmergeSeed = 1
)

func newModel() *reid.Model { return reid.NewModel(modelSeed, dataset.AppearanceDim) }

// newTMerge returns the TMerge selector with the given iteration budget
// (0 keeps the default).
func newTMerge(tauMax int) core.Algorithm {
	cfg := core.DefaultTMergeConfig(tmergeSeed)
	if tauMax > 0 {
		cfg.TauMax = tauMax
	}
	return core.NewTMerge(cfg)
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the -trace 0 metric set, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_fps", "frames/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer is the -trace 1 metric set. Every workload reports every
// metric; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"latency_ms.p90", "ms"},
	{"latency_ms.p99", "ms"},
	{"ingress.flush_ms.p50", "ms"},
	{"ingress.flush_ms.p99", "ms"},
	{"ingress.requests", "count"},
	{"ingress.throttled", "count"},
	{"ingress.retries", "count"},
	{"ingress.decode_us_per_frame", "us"},
	{"gen.late_ms.p50", "ms"},
	{"gen.late_ms.max", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.backlog_frames.max", "frames"},
	{"serve.closing_push_ms.p50", "ms"},
	{"serve.closing_push_ms.p99", "ms"},
	{"ingest.push_us.p50", "us"},
	{"ingest.push_us.p99", "us"},
	{"ingest.window_ms.p50", "ms"},
	{"ingest.window_ms.p99", "ms"},
	{"core.select_ms.p50", "ms"},
	{"core.select_ms.p99", "ms"},
	{"core.select_busy_s", "s"},
	{"core.pairs_per_window", "count"},
	{"core.worker_busy_frac", "ratio"},
	{"core.degraded_windows", "count"},
	{"core.rec_k", "ratio"},
	{"reid.extractions", "count"},
	{"reid.cache_hits", "count"},
	{"reid.hit_ratio", "ratio"},
	{"reid.distances", "count"},
	{"device.submissions", "count"},
	{"device.submit_busy_s", "s"},
	{"device.virtual_s", "s"},
	{"device.virtual_fps", "frames/s"},
	{"query.apply_us.p50", "us"},
	{"query.apply_us.p99", "us"},
	{"query.deltas", "count"},
	{"view.hot_tracks", "count"},
	{"view.cold_tracks", "count"},
	{"view.hot_cells", "count"},
	{"view.evictions", "count"},
	{"view.rehydrations", "count"},
	{"hist.log_mb", "MB"},
	{"hist.segments", "count"},
	{"hist.compactions", "count"},
	{"hist.asof_ms.p50", "ms"},
	{"hist.asof_ms.p90", "ms"},
	{"ckpt.seal_ms.p50", "ms"},
	{"ckpt.seal_ms.max", "ms"},
	{"ckpt.bytes.last", "bytes"},
	{"ckpt.bytes_per_window", "bytes"},
	{"ckpt.open_s", "s"},
	{"ingest.replay_s", "s"},
	{"ingest.restore_s", "s"},
	{"runtime.peak_heap_mb", "MB"},
	{"runtime.alloc_mb_per_kframe", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch directory for on-disk state
}

// outcome is what one workload run hands back: its metric values and
// its operation/check tallies.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
}

// fail records one failed operation or check, with the reason on
// standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
}

// check counts one attempted operation or check and records a failure
// when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

var workloads = map[string]func(options) (*outcome, error){
	"offline": runOffline,
	"fleet":   runFleet,
	"history": runHistory,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: offline, fleet or history")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.work, "work", "", "scratch directory for on-disk state (required)")
	flag.Parse()
	opt.trace = trace == 1

	run, ok := workloads[opt.workload]
	switch {
	case !ok:
		fatalf("unknown workload %q (want offline, fleet or history)", opt.workload)
	case trace != 0 && trace != 1:
		fatalf("-trace must be 0 or 1, got %d", trace)
	case opt.seconds <= 0:
		fatalf("-seconds must be positive, got %g", opt.seconds)
	case opt.work == "":
		fatalf("-work is required")
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fatalf("%v", err)
	}

	env := map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	envLine, _ := json.Marshal(env)
	fmt.Println(string(envLine))

	out, err := run(opt)
	if err != nil {
		fatalf("%s: %v", opt.workload, err)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !opt.trace {
			fatalf("%s: end-to-end metric %s was not measured", opt.workload, d.name)
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.attempted < 1 {
		fatalf("%s: no operation attempted", opt.workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// deadline reports whether the measuring time that began at start has
// run out.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}

// quantile is stats.Quantile, reading 0 for an empty sample (a layer
// the workload does not exercise).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupClock times a workload's set-up. The inputs are built in two
// blocks of repeats, one before the measured phase and one after it,
// each running for at least setupBlockSeconds; setup_s is the median
// build over both. A set-up of a fraction of a second is thus sampled
// across the run rather than in its first seconds, when the machine's
// speed can differ from the rest of the run. Every build starts from a
// collected heap; the inputs of the last build are the ones kept.
type setupClock struct {
	builds []float64 // seconds
}

const setupBlockSeconds = 1.0

// time runs build at least minRepeats times and until the block has
// lasted setupBlockSeconds.
func (c *setupClock) time(build func() error, minRepeats int) error {
	start := time.Now()
	for n := 0; n < minRepeats || !deadline(start, setupBlockSeconds); n++ {
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return err
		}
		c.builds = append(c.builds, time.Since(t).Seconds())
	}
	return nil
}

// median is the median build time so far.
func (c *setupClock) median() float64 { return quantile(c.builds, 0.5) }
