// Command benchrunner regenerates the paper's tables and figures on the
// synthetic datasets, and runs the parallel window-executor benchmark
// that gates CI.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp fig5,table2 -videos 3 -seed 42
//	benchrunner -exp all -json results.ndjson
//	benchrunner -exp servebench -streams 4,16
//	benchrunner -exp histbench -json hist.ndjson
//	benchrunner -exp claims -workers 2
//	benchrunner -bench -bench-out BENCH_pr.json -compare BENCH_baseline.json -min-speedup 2
//
// Each experiment prints a plain-text table; EXPERIMENTS.md records the
// expected shapes next to the paper's reported values. With -json, every
// executed experiment additionally appends its structured result to the
// given file as line-delimited JSON (one bench.Record per line, the same
// NDJSON convention as tmergevet -json). A failed gate in claims,
// servebench or histbench still has its record written, and the
// profiles stopped, before the run exits 1.
//
// histbench streams a million-track synthetic workload through the
// log-structured history spine (tiered view over a segmented on-disk
// log) and enforces its bounded-memory gates: a deterministic hot-cell
// ceiling and a measured heap-growth-per-track ceiling, each reported
// as an explicit gate_status row (skipped, loudly, where unmeasurable).
// claims is the paper-claims gate: the qualitative claims of Figs. 3, 5,
// 8, 9 and 11–13 judged over the gate's pinned seeds and workload
// (-seed, -videos and -trials do not apply; -workers measures that many
// seeds at once). Each claim is one gate_status row, and any failed
// claim exits nonzero. It is what accepts a change to the bandit's
// random draws, where bit-identical outputs cannot.
//
// -streams overrides the servebench fleet sizes; an override that drops
// the pinned large arm emits an explicit skipped gate_status row so the
// artifact records the reduced coverage.
//
// -bench runs the pinned parallel-executor benchmark instead of the
// experiments: the same pass at Workers ∈ {1, 2, 4}, written as NDJSON
// rows (-bench-out). The worker counts run in alternation, three rounds
// of each, and a row's wall time and speedup are medians over the
// rounds (each round's speedup taken within that round), so a burst of
// other load on the machine moves one round, not the gate. With
// -compare it enforces the CI gate — any fingerprint mismatch between
// worker counts, rounds or against the baseline, or a virtual-FPS
// regression beyond -max-regression, exits nonzero.
// -min-speedup additionally requires the measured wall-clock speedup of
// the highest worker count over Workers=1, and -min-speedup-2w puts a
// floor (strictly above) under the Workers=2 row; either is skipped when
// the machine has fewer CPUs than that worker count, because the
// speedup would be physically unreachable (the deterministic checks
// still run). Every gate decision — ok, skipped, failed — is emitted as
// an explicit gate_status NDJSON row in -bench-out, carrying the worker
// count, the measured speedup, and the enforced threshold, and echoed to
// the run log, so a skipped gate is visible in CI instead of silently
// absent. -trend-out writes a markdown wall-time trend table (run vs the
// -compare baseline) for the CI job summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/tmerge/tmerge/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments to run (fig3..fig13,table2,pearson,ablations,querybench,servebench,histbench,claims) or 'all'")
		seed    = flag.Uint64("seed", 42, "master seed for datasets and algorithms")
		videos  = flag.Int("videos", 3, "videos per dataset (0 = full profile size)")
		trials  = flag.Int("trials", 3, "independent trials to average stochastic algorithms over")
		workers = flag.Int("workers", 3, "parallel workers across trials (claims: across seeds)")
		jsonOut = flag.String("json", "", "write experiment results as line-delimited JSON to this file ('-' for stdout)")

		transport = flag.String("transport", "inproc", "servebench frame transport: inproc (direct serve.Manager pushes) or http (loopback NDJSON ingress)")
		streams   = flag.String("streams", "", "comma-separated servebench fleet sizes (empty keeps the pinned default; dropping the large arm emits an explicit gate_status skip)")
		histDir   = flag.String("hist-dir", "", "history directory for the histbench experiment (empty uses a temp dir, removed afterwards)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile (after a final GC) to this file")

		benchMode    = flag.Bool("bench", false, "run the pinned parallel window-executor benchmark instead of experiments")
		benchOut     = flag.String("bench-out", "", "write parallel-benchmark rows as line-delimited JSON to this file ('-' for stdout)")
		compare      = flag.String("compare", "", "baseline NDJSON file to gate the parallel benchmark against")
		maxRegress   = flag.Float64("max-regression", 0.15, "maximum allowed virtual-FPS regression vs the baseline (fraction)")
		minSpeedup   = flag.Float64("min-speedup", 0, "required wall-clock speedup of the largest worker count over Workers=1 (0 disables)")
		minSpeedup2w = flag.Float64("min-speedup-2w", 0, "wall-clock speedup floor the Workers=2 row must stay strictly above (0 disables)")
		trendOut     = flag.String("trend-out", "", "write a markdown wall-time trend table (run vs -compare baseline) to this file ('-' for stdout)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}

	s := bench.NewSuite(*seed)
	s.VideosPerDataset = *videos
	s.Trials = *trials
	s.Workers = *workers
	w := os.Stdout

	if *benchMode {
		// The pinned benchmark config wins over the -videos default; an
		// explicitly passed -videos still overrides the pin.
		videosSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "videos" {
				videosSet = true
			}
		})
		code := runBenchGate(s, videosSet, *benchOut, *compare, *trendOut, *maxRegress, *minSpeedup, *minSpeedup2w)
		stopProfiles()
		os.Exit(code)
	}

	// code is the exit status. A failed gate sets 1 and a run error
	// (runErr) 2; either way the records gathered so far are written and
	// the profiles stopped before the process exits, so a failed gate
	// still leaves its rows behind.
	code := 0
	var runErr error
	gateFailed := func(exp string, fails []string) {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "benchrunner: %s FAIL: %s\n", exp, f)
		}
		if len(fails) > 0 {
			code = 1
		}
	}
	runners := map[string]func() any{
		"fig3": func() any { return s.Fig3(w) },
		"fig4": func() any { return s.Fig4(w) },
		"fig5": func() any { return s.Fig5(w) },
		"fig6": func() any { return s.Fig6(w) },
		"fig7": func() any {
			rows, elapsed := s.Fig7(w)
			return map[string]any{"rows": rows, "elapsed_ms": float64(elapsed) / float64(time.Millisecond)}
		},
		"fig8":  func() any { return s.Fig8(w) },
		"fig9":  func() any { return s.Fig9(w) },
		"fig10": func() any { return s.Fig10(w) },
		"fig11": func() any { return s.Fig11(w) },
		"fig12": func() any { return s.Fig12(w) },
		"fig13": func() any { return s.Fig13(w) },
		"querybench": func() any {
			cfg := bench.DefaultQueryBench()
			cfg.Clock = time.Now
			return s.QueryBench(w, cfg)
		},
		"servebench": func() any {
			cfg := bench.DefaultServeBench()
			cfg.Clock = time.Now
			cfg.Transport = *transport
			statuses := applyStreamsOverride(&cfg, *streams)
			rows, err := bench.ServeBench(context.Background(), w, cfg)
			if err != nil {
				runErr = fmt.Errorf("servebench: %w", err)
				return nil
			}
			gateFailed("servebench", bench.CheckServeBench(rows, cfg.Frames))
			if len(statuses) > 0 {
				return map[string]any{"rows": rows, "gates": statuses}
			}
			return rows
		},
		"histbench": func() any {
			cfg := bench.DefaultHistBench()
			cfg.Clock = time.Now
			cfg.Dir = *histDir
			if cfg.Dir == "" {
				dir, err := os.MkdirTemp("", "histbench-")
				if err != nil {
					runErr = fmt.Errorf("histbench: %w", err)
					return nil
				}
				defer os.RemoveAll(dir)
				cfg.Dir = dir
			}
			row, statuses, err := bench.HistBench(w, cfg)
			if err != nil {
				runErr = fmt.Errorf("histbench: %w", err)
				return nil
			}
			gateFailed("histbench", bench.CheckHistBench([]bench.HistBenchRow{row}, statuses, cfg.CompactEvery))
			return map[string]any{"row": row, "gates": statuses}
		},
		"claims": func() any {
			samples := bench.MeasureClaims(*workers)
			bench.ClaimTable(samples).Fprint(w)
			statuses := bench.CheckClaims(samples, runtime.NumCPU())
			failed := 0
			for _, st := range statuses {
				fmt.Fprintf(w, "benchrunner: gate %s %s: %s\n", st.Gate, strings.ToUpper(st.Status), st.Reason)
				if st.Status != bench.GateOK {
					failed++
				}
			}
			if failed > 0 {
				fmt.Fprintf(os.Stderr, "benchrunner: claims gate failed: %d of %d claim(s) do not reproduce\n", failed, len(statuses))
				code = 1
			}
			return map[string]any{"samples": samples, "gates": statuses}
		},
		"table2":    func() any { return s.Table2(w) },
		"ablations": func() any { return s.Ablations(w) },
		"pearson":   func() any { return s.Pearson(w) },
	}

	var names []string
	if *exp == "all" {
		for name := range runners {
			names = append(names, name)
		}
		sort.Strings(names)
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", name)
				os.Exit(2)
			}
			names = append(names, name)
		}
	}

	var records []bench.Record
	for _, name := range names {
		start := time.Now()
		payload := runners[name]()
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", runErr)
			code = 2
			break
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "[%s completed in %s]\n", name, elapsed.Round(time.Millisecond))
		records = append(records, bench.Record{
			Experiment: name,
			Seed:       *seed,
			Videos:     *videos,
			Trials:     *trials,
			ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
			Payload:    payload,
		})
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(f *os.File) error { return bench.WriteRecords(f, records) }); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			code = 2
		}
	}
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins CPU profiling and/or arms a heap-profile dump,
// returning a stop function that must run before the process exits (the
// bench path exits via os.Exit, so defers would not fire). Empty paths
// disable the corresponding profile; the returned stop is never nil.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			if cerr := cpuFile.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: closing cpu profile:", cerr)
			}
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: closing cpu profile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: mem profile:", err)
				return
			}
			// A final GC makes the allocation profile reflect live and
			// cumulative allocations at end-of-run, not GC timing noise.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: writing mem profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: closing mem profile:", err)
			}
		}
	}, nil
}

// runBenchGate runs the pinned parallel benchmark and applies the CI
// gate, returning the process exit code.
func runBenchGate(s *bench.Suite, videosSet bool, out, comparePath, trendOut string, maxRegress, minSpeedup, minSpeedup2w float64) int {
	cfg := bench.DefaultParallelBench()
	if videosSet && s.VideosPerDataset > 0 {
		cfg.Videos = s.VideosPerDataset
	}
	cfg.Clock = time.Now
	rows, fails := s.ParallelBench(os.Stdout, cfg)

	var baseline []bench.ParallelBenchResult
	if comparePath != "" {
		f, err := os.Open(comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			return 2
		}
		baseline, err = bench.DecodeParallelBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			return 2
		}
	}

	fails = append(fails, bench.CheckParallelBench(rows, baseline, maxRegress)...)
	var statuses []bench.GateStatus

	// speedupGate applies one wall-speedup floor to the given row,
	// producing exactly one gate_status row (ok, skipped on a too-small
	// machine, or failed) that records the worker count, the measurement,
	// and the enforced threshold. strict requires the speedup strictly
	// above the floor (the Workers=2 floor is ">1.0": parallelism must
	// not lose to sequential, but need not win by a margin there).
	speedupGate := func(gate string, row bench.ParallelBenchResult, floor float64, strict bool) {
		st := bench.NewGateStatus(gate, bench.GateOK, "", runtime.NumCPU())
		st.Workers = row.Workers
		st.Speedup = row.WallSpeedup
		st.MinSpeedup = floor
		failed := row.WallSpeedup < floor || (strict && row.WallSpeedup == floor)
		switch {
		case runtime.NumCPU() < row.Workers:
			// The speedup is physically unreachable here; skip the gate —
			// loudly. The explicit row keeps a skipped gate from being
			// mistaken for a passed one in the artifact.
			st.Status = bench.GateSkipped
			st.Reason = fmt.Sprintf("%d CPU(s) < %d workers; %.1fx wall speedup unreachable (determinism and FPS gates still apply)",
				runtime.NumCPU(), row.Workers, floor)
			fmt.Printf("benchrunner: gate %s SKIPPED: %s\n", gate, st.Reason)
		case failed:
			st.Status = bench.GateFailed
			st.Reason = fmt.Sprintf("%.2fx median wall speedup at %d workers, gate requires %.1fx", row.WallSpeedup, row.Workers, floor)
			fails = append(fails, "speedup: "+st.Reason)
		default:
			st.Reason = fmt.Sprintf("%.2fx median wall speedup at %d workers (floor %.1fx)", row.WallSpeedup, row.Workers, floor)
		}
		statuses = append(statuses, st)
	}
	if minSpeedup > 0 && len(rows) > 0 {
		speedupGate("parallel_windows_wall_speedup", rows[len(rows)-1], minSpeedup, false)
	}
	if minSpeedup2w > 0 {
		for _, r := range rows {
			if r.Workers == 2 {
				speedupGate("parallel_windows_wall_speedup_2w", r, minSpeedup2w, true)
				break
			}
		}
	}

	if out != "" {
		err := writeTo(out, func(f *os.File) error {
			if err := bench.WriteParallelBench(f, rows); err != nil {
				return err
			}
			return bench.WriteGateStatuses(f, statuses)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			return 2
		}
	}
	if trendOut != "" {
		err := writeTo(trendOut, func(f *os.File) error {
			_, err := fmt.Fprint(f, bench.TrendTable(baseline, rows))
			return err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			return 2
		}
	}

	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "benchrunner: FAIL:", f)
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: bench gate failed with %d finding(s)\n", len(fails))
		return 1
	}
	fmt.Println("benchrunner: bench gate passed")
	return 0
}

// applyStreamsOverride replaces the servebench fleet sizes with the
// -streams override. When the override drops the pinned largest arm
// (the fleet size the capacity numbers are quoted at), an explicit
// skipped gate_status row records that the big arm did not run — the
// same loud-skip convention as the wall-speedup gates, so a scaled-down
// local run is never mistaken for full coverage in the artifact.
func applyStreamsOverride(cfg *bench.ServeBenchConfig, streams string) []bench.GateStatus {
	if streams == "" {
		return nil
	}
	large := 0
	for _, n := range cfg.StreamCounts {
		if n > large {
			large = n
		}
	}
	var counts []int
	for _, part := range strings.Split(streams, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "benchrunner: -streams value %q is not a positive integer\n", part)
			os.Exit(2)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		fmt.Fprintln(os.Stderr, "benchrunner: -streams lists no fleet sizes")
		os.Exit(2)
	}
	cfg.StreamCounts = counts
	maxC := 0
	for _, n := range counts {
		if n > maxC {
			maxC = n
		}
	}
	if maxC >= large {
		return nil
	}
	st := bench.NewGateStatus("servebench_large_fleet", bench.GateSkipped,
		fmt.Sprintf("-streams capped the fleet at %d stream(s); the pinned %d-stream arm did not run", maxC, large),
		runtime.NumCPU())
	fmt.Printf("benchrunner: gate %s SKIPPED: %s\n", st.Gate, st.Reason)
	return []bench.GateStatus{st}
}

// writeTo opens path for writing ('-' means stdout) and hands it to fn.
func writeTo(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
