package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
)

// ParallelBenchConfig pins one parallel window-executor benchmark: the
// same pass (dataset, seed, algorithm) run once per worker count, so the
// rows can be compared for determinism (fingerprints must agree) and
// throughput (wall time should drop as workers grow).
type ParallelBenchConfig struct {
	// Dataset names the suite dataset to run over.
	Dataset string
	// Videos truncates the dataset (0 keeps the suite's own
	// VideosPerDataset setting). It must be set before the suite first
	// generates the dataset; a dataset already cached with a different
	// truncation is not re-cut.
	Videos int
	// WindowLen overrides the dataset's window length when positive —
	// the parallel executor needs many windows per video to have
	// anything to shard.
	WindowLen int
	// TauMax is the TMerge iteration budget.
	TauMax int
	// K is the candidate proportion.
	K float64
	// WorkerCounts lists the PipelineConfig.Workers values to measure,
	// one result row each. The first count is the speedup baseline
	// (conventionally 1).
	WorkerCounts []int
	// Clock reads wall time for the speedup measurement. It must be
	// injected by the caller — cmd/benchrunner is on the determinism
	// allowlist, this package is not. Nil disables wall timing (WallMS
	// and WallSpeedup stay 0); everything else in a row is virtual-time
	// based and fully deterministic.
	Clock func() time.Time
}

// DefaultParallelBench is the pinned configuration the CI bench gate
// runs: small enough for a CI minute, windowed finely enough (19 windows
// per video) that the executor has real sharding to do.
func DefaultParallelBench() ParallelBenchConfig {
	return ParallelBenchConfig{
		Dataset:      "pathtrack",
		Videos:       2,
		WindowLen:    400,
		TauMax:       4000,
		K:            DefaultK,
		WorkerCounts: []int{1, 2, 4},
	}
}

// parallelBenchRounds is how many times ParallelBench runs every worker
// count, the counts alternating within each round. The wall fields are
// medians over the rounds, so one round slowed by other load on the
// machine does not decide a speedup gate.
const parallelBenchRounds = 3

// ParallelBenchResult is one row of the parallel benchmark — the
// line-delimited JSON shape persisted as BENCH_baseline.json /
// BENCH_pr.json and consumed by the CI regression gate. FPS, VirtualMS,
// REC, and Fingerprint are deterministic functions of the configuration;
// WallMS and WallSpeedup are measured and vary run to run.
type ParallelBenchResult struct {
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Seed       uint64 `json:"seed"`
	Videos     int    `json:"videos"`
	WindowLen  int    `json:"window_len"`
	Workers    int    `json:"workers"`
	// NumCPU records the CPU count of the machine that produced the row.
	// Wall-clock fields are only interpretable next to it: a 4-worker row
	// measured on 1 CPU cannot show parallel speedup no matter how good
	// the executor is. Like WallMS it is measurement context, never gated.
	NumCPU      int     `json:"num_cpu,omitempty"`
	Frames      int     `json:"frames"`
	REC         float64 `json:"rec"`
	FPS         float64 `json:"fps"`
	VirtualMS   float64 `json:"virtual_ms"`
	WallMS      float64 `json:"wall_ms,omitempty"`
	WallSpeedup float64 `json:"wall_speedup,omitempty"`
	// Fingerprint chains the per-video PipelineResult fingerprints; any
	// divergence between worker counts (or against a committed
	// baseline) is a determinism break.
	Fingerprint string `json:"fingerprint"`
}

// parallelBenchExperiment tags the rows in mixed NDJSON streams.
const parallelBenchExperiment = "parallel_windows"

// RunParallelBench measures the pinned pass at every configured worker
// count and returns one row per count, in WorkerCounts order. Dataset
// generation and tracking are warmed (and cached) before any timing, so
// WallMS covers only the window loop — selection, certification, and
// reduction.
func (s *Suite) RunParallelBench(cfg ParallelBenchConfig) []ParallelBenchResult {
	if cfg.Videos > 0 {
		s.VideosPerDataset = cfg.Videos
	}
	ds := s.Dataset(cfg.Dataset)
	tr := track.Tracktor()
	for i := range ds.Videos {
		s.Tracks(cfg.Dataset, tr, i)
	}
	windowLen := ds.WindowLen
	if cfg.WindowLen > 0 {
		windowLen = cfg.WindowLen
	}
	tcfg := core.DefaultTMergeConfig(s.Seed)
	if cfg.TauMax > 0 {
		tcfg.TauMax = cfg.TauMax
	}

	out := make([]ParallelBenchResult, 0, len(cfg.WorkerCounts))
	for _, workers := range cfg.WorkerCounts {
		row := ParallelBenchResult{
			Experiment: parallelBenchExperiment,
			Dataset:    cfg.Dataset,
			Seed:       s.Seed,
			Videos:     len(ds.Videos),
			WindowLen:  windowLen,
			Workers:    workers,
			NumCPU:     runtime.NumCPU(),
		}
		fp := sha256.New()
		var recSum float64
		var virtual time.Duration
		var wall time.Duration
		for i, v := range ds.Videos {
			ts := s.Tracks(cfg.Dataset, tr, i)
			oracle := reid.NewOracle(s.model, s.newDevice(CPU))
			var start time.Time
			if cfg.Clock != nil {
				start = cfg.Clock()
			}
			res := core.RunPipeline(ts, v.NumFrames, oracle, core.PipelineConfig{
				WindowLen: windowLen,
				K:         cfg.K,
				Algorithm: core.NewTMerge(tcfg),
				Workers:   workers,
			})
			if cfg.Clock != nil {
				wall += cfg.Clock().Sub(start)
			}
			recSum += res.REC
			virtual += res.Virtual
			row.Frames += res.FramesProcessed
			fmt.Fprintln(fp, res.Fingerprint())
		}
		if n := len(ds.Videos); n > 0 {
			row.REC = recSum / float64(n)
		}
		row.VirtualMS = float64(virtual) / float64(time.Millisecond)
		if virtual > 0 {
			row.FPS = float64(row.Frames) / virtual.Seconds()
		}
		row.WallMS = float64(wall) / float64(time.Millisecond)
		row.Fingerprint = hex.EncodeToString(fp.Sum(nil))
		out = append(out, row)
	}
	if len(out) > 0 && out[0].WallMS > 0 {
		for i := range out {
			if out[i].WallMS > 0 {
				out[i].WallSpeedup = out[0].WallMS / out[i].WallMS
			}
		}
	}
	return out
}

// ParallelBench runs RunParallelBench parallelBenchRounds times, merges
// the rounds with MedianParallelBench, and prints the human table. It
// returns the merged rows and any round whose fingerprints diverged.
func (s *Suite) ParallelBench(w io.Writer, cfg ParallelBenchConfig) ([]ParallelBenchResult, []string) {
	rounds := make([][]ParallelBenchResult, parallelBenchRounds)
	for i := range rounds {
		rounds[i] = s.RunParallelBench(cfg)
	}
	rows, fails := MedianParallelBench(rounds)
	fmt.Fprintf(w, "Parallel window executor — %s, %d video(s), L=%d, wall medians of %d rounds\n",
		cfg.Dataset, len(s.Dataset(cfg.Dataset).Videos), rows[0].WindowLen, len(rounds))
	fmt.Fprintf(w, "%-8s %10s %10s %12s %10s %10s  %s\n",
		"workers", "REC", "FPS(virt)", "virtual(ms)", "wall(ms)", "speedup", "fingerprint")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %10.4f %10.1f %12.1f %10.1f %10.2f  %s\n",
			r.Workers, r.REC, r.FPS, r.VirtualMS, r.WallMS, r.WallSpeedup, r.Fingerprint[:12])
	}
	for i, r := range rows[1:] {
		fmt.Fprintf(w, "speedup at %d workers by round:", r.Workers)
		for _, round := range rounds {
			fmt.Fprintf(w, " %.2f", round[i+1].WallSpeedup)
		}
		fmt.Fprintln(w)
	}
	return rows, fails
}

// MedianParallelBench merges rounds of RunParallelBench rows, each
// round holding the same worker counts in the same order. The result is
// the first round's rows with WallMS the median of the rounds' WallMS
// and WallSpeedup the median of the rounds' own speedups: each round's
// arms ran back to back, so its ratio is taken under one load. A row
// whose fingerprint differs from the first round's is a failure.
func MedianParallelBench(rounds [][]ParallelBenchResult) ([]ParallelBenchResult, []string) {
	rows := append([]ParallelBenchResult(nil), rounds[0]...)
	var fails []string
	wall := make([]float64, len(rounds))
	speedup := make([]float64, len(rounds))
	for i := range rows {
		for k, round := range rounds {
			r := round[i]
			if r.Workers != rows[i].Workers || r.Fingerprint != rows[i].Fingerprint {
				fails = append(fails, fmt.Sprintf(
					"determinism: round %d Workers=%d fingerprint %.12s differs from round 0 Workers=%d fingerprint %.12s",
					k, r.Workers, r.Fingerprint, rows[i].Workers, rows[i].Fingerprint))
			}
			wall[k], speedup[k] = r.WallMS, r.WallSpeedup
		}
		rows[i].WallMS, rows[i].WallSpeedup = median(wall), median(speedup)
	}
	return rows, fails
}

// median returns the median of xs, reordering them: the middle value,
// or the mean of the two middle ones.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// WriteParallelBench writes rows as line-delimited JSON, one object per
// line — the same NDJSON convention as tmergevet's -json findings.
func WriteParallelBench(w io.Writer, rows []ParallelBenchResult) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// DecodeParallelBench reads rows written by WriteParallelBench (one JSON
// object per line; blank lines and rows of other experiments are
// skipped).
func DecodeParallelBench(r io.Reader) ([]ParallelBenchResult, error) {
	var out []ParallelBenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row ParallelBenchResult
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			return nil, fmt.Errorf("bench: decoding row %q: %w", line, err)
		}
		if row.Experiment != parallelBenchExperiment {
			continue
		}
		out = append(out, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckParallelBench validates one run's rows against themselves and an
// optional baseline, returning a list of human-readable failures (empty
// means the gate passes):
//
//   - every row of the run must carry the same fingerprint — Workers=1
//     and Workers=N diverging is a determinism break, the hardest
//     failure this gate exists to catch;
//   - each row is compared to the baseline row with the same pinned
//     identity (dataset, seed, videos, window length, workers):
//     fingerprints must match exactly, and virtual-time FPS may not
//     regress by more than maxRegression (a fraction, e.g. 0.15).
//
// Wall-clock fields are never gated here: they are machine-dependent.
// Baseline rows with no matching run row (and vice versa) fail too, so a
// silently narrowed benchmark cannot pass.
func CheckParallelBench(run, baseline []ParallelBenchResult, maxRegression float64) []string {
	var fails []string
	if len(run) == 0 {
		return []string{"no benchmark rows produced"}
	}
	for _, r := range run[1:] {
		if r.Fingerprint != run[0].Fingerprint {
			fails = append(fails, fmt.Sprintf(
				"determinism: Workers=%d fingerprint %.12s differs from Workers=%d fingerprint %.12s",
				r.Workers, r.Fingerprint, run[0].Workers, run[0].Fingerprint))
		}
	}
	if baseline == nil {
		return fails
	}
	key := func(r ParallelBenchResult) string {
		return fmt.Sprintf("%s/seed%d/videos%d/L%d/workers%d", r.Dataset, r.Seed, r.Videos, r.WindowLen, r.Workers)
	}
	base := make(map[string]ParallelBenchResult, len(baseline))
	for _, b := range baseline {
		base[key(b)] = b
	}
	matched := 0
	for _, r := range run {
		b, ok := base[key(r)]
		if !ok {
			fails = append(fails, fmt.Sprintf("baseline has no row for %s", key(r)))
			continue
		}
		matched++
		if r.Fingerprint != b.Fingerprint {
			fails = append(fails, fmt.Sprintf(
				"determinism: %s fingerprint %.12s differs from baseline %.12s",
				key(r), r.Fingerprint, b.Fingerprint))
		}
		if b.FPS > 0 && r.FPS < b.FPS*(1-maxRegression) {
			fails = append(fails, fmt.Sprintf(
				"throughput: %s FPS %.1f regressed more than %.0f%% from baseline %.1f",
				key(r), r.FPS, maxRegression*100, b.FPS))
		}
	}
	if matched < len(base) {
		fails = append(fails, fmt.Sprintf("run covered %d of %d baseline rows", matched, len(base)))
	}
	return fails
}
