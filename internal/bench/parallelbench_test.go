package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func benchRow(workers int, fps float64, fp string) ParallelBenchResult {
	return ParallelBenchResult{
		Experiment:  parallelBenchExperiment,
		Dataset:     "pathtrack",
		Seed:        42,
		Videos:      2,
		WindowLen:   400,
		Workers:     workers,
		Frames:      8000,
		REC:         0.9,
		FPS:         fps,
		VirtualMS:   1000,
		Fingerprint: fp,
	}
}

func TestParallelBenchJSONRoundTrip(t *testing.T) {
	rows := []ParallelBenchResult{
		benchRow(1, 650, "aaa"),
		benchRow(2, 650, "aaa"),
	}
	var buf bytes.Buffer
	if err := WriteParallelBench(&buf, rows); err != nil {
		t.Fatal(err)
	}
	// One object per line, no surrounding array — the NDJSON convention.
	if got := strings.Count(strings.TrimSpace(buf.String()), "\n"); got != 1 {
		t.Fatalf("expected 2 lines, got %d newlines in %q", got+1, buf.String())
	}
	back, err := DecodeParallelBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", rows, back)
	}
}

func TestDecodeParallelBenchSkipsForeignRows(t *testing.T) {
	in := strings.NewReader(`
{"experiment":"fig5","payload":{}}

{"experiment":"parallel_windows","dataset":"pathtrack","seed":42,"videos":2,"window_len":400,"workers":1,"fps":650,"fingerprint":"aaa"}
`)
	rows, err := DecodeParallelBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Workers != 1 {
		t.Fatalf("got %+v, want the single parallel_windows row", rows)
	}
}

func TestCheckParallelBenchDeterminismGate(t *testing.T) {
	run := []ParallelBenchResult{
		benchRow(1, 650, "aaa"),
		benchRow(2, 650, "bbb"), // diverged fingerprint
	}
	fails := CheckParallelBench(run, nil, 0.15)
	if len(fails) != 1 || !strings.Contains(fails[0], "determinism") {
		t.Fatalf("want one determinism failure, got %v", fails)
	}
	run[1].Fingerprint = "aaa"
	if fails := CheckParallelBench(run, nil, 0.15); len(fails) != 0 {
		t.Fatalf("clean run flagged: %v", fails)
	}
}

func TestCheckParallelBenchBaselineGate(t *testing.T) {
	base := []ParallelBenchResult{
		benchRow(1, 650, "aaa"),
		benchRow(2, 650, "aaa"),
	}

	// Identical run: passes.
	if fails := CheckParallelBench(base, base, 0.15); len(fails) != 0 {
		t.Fatalf("identical run flagged: %v", fails)
	}

	// Mild slowdown within tolerance: passes.
	ok := []ParallelBenchResult{benchRow(1, 600, "aaa"), benchRow(2, 600, "aaa")}
	if fails := CheckParallelBench(ok, base, 0.15); len(fails) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", fails)
	}

	// >15% virtual-FPS regression: fails.
	slow := []ParallelBenchResult{benchRow(1, 500, "aaa"), benchRow(2, 500, "aaa")}
	fails := CheckParallelBench(slow, base, 0.15)
	if len(fails) != 2 || !strings.Contains(fails[0], "throughput") {
		t.Fatalf("want two throughput failures, got %v", fails)
	}

	// Fingerprint drift vs baseline: fails even though the run is
	// internally consistent.
	drift := []ParallelBenchResult{benchRow(1, 650, "ccc"), benchRow(2, 650, "ccc")}
	fails = CheckParallelBench(drift, base, 0.15)
	if len(fails) != 2 || !strings.Contains(fails[0], "determinism") {
		t.Fatalf("want two determinism failures, got %v", fails)
	}

	// A run covering fewer rows than the baseline cannot pass silently.
	narrow := []ParallelBenchResult{benchRow(1, 650, "aaa")}
	fails = CheckParallelBench(narrow, base, 0.15)
	if len(fails) != 1 || !strings.Contains(fails[0], "covered 1 of 2") {
		t.Fatalf("want a coverage failure, got %v", fails)
	}

	// A run row missing from the baseline fails too.
	extra := []ParallelBenchResult{benchRow(1, 650, "aaa"), benchRow(2, 650, "aaa"), benchRow(4, 650, "aaa")}
	fails = CheckParallelBench(extra, base, 0.15)
	if len(fails) != 1 || !strings.Contains(fails[0], "no row") {
		t.Fatalf("want a missing-baseline-row failure, got %v", fails)
	}
}

// TestMedianParallelBench pins how rounds merge: each row's wall time
// is the median over the rounds, its speedup the median of the rounds'
// own speedups, so one round slowed by other load does not fail a
// floor; and a fingerprint that moves between rounds is a failure.
func TestMedianParallelBench(t *testing.T) {
	round := func(w1, w2 float64) []ParallelBenchResult {
		a, b := benchRow(1, 650, "aaa"), benchRow(2, 650, "aaa")
		a.WallMS, a.WallSpeedup = w1, 1
		b.WallMS, b.WallSpeedup = w2, w1/w2
		return []ParallelBenchResult{a, b}
	}
	// The second round ran Workers=2 under load: 0.75x on its own.
	rounds := [][]ParallelBenchResult{round(500, 280), round(520, 693.33), round(1000, 550)}
	rows, fails := MedianParallelBench(rounds)
	if len(fails) != 0 {
		t.Fatalf("clean rounds flagged: %v", fails)
	}
	if rows[0].WallMS != 520 || rows[1].WallMS != 550 {
		t.Fatalf("median walls %v, %v; want 520, 550", rows[0].WallMS, rows[1].WallMS)
	}
	if want := 500.0 / 280; rows[1].WallSpeedup != want || rows[0].WallSpeedup != 1 {
		t.Fatalf("median speedups %v, %v; want 1, %v (the median of the rounds' ratios)", rows[0].WallSpeedup, rows[1].WallSpeedup, want)
	}
	if rounds[0][1].WallMS != 280 {
		t.Fatal("merging rewrote the first round's rows")
	}

	rounds[2][1].Fingerprint = "bbb"
	if _, fails := MedianParallelBench(rounds); len(fails) != 1 || !strings.Contains(fails[0], "round 2 Workers=2") {
		t.Fatalf("want one determinism failure naming round 2, got %v", fails)
	}
}
