package bench

import (
	"fmt"
	"io"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// Datasets is the evaluation corpus order used throughout the harness.
var Datasets = []string{"mot17", "kitti", "pathtrack"}

// TauSweep is the iteration-budget sweep for LCB and TMerge curves.
var TauSweep = []int{1000, 2000, 5000, 10000, 20000, 40000}

// EtaSweep is the sampled-proportion sweep for PS curves. The low end
// samples only a handful of BBox pairs per track pair, where per-sample
// ReID noise (pose changes, partial occlusion) makes estimates unreliable.
var EtaSweep = []float64{0.0001, 0.0005, 0.002, 0.01, 0.05}

// KSweep is the candidate-proportion sweep of the REC-K curves (Figure 3).
var KSweep = []float64{0.01, 0.02, 0.03, 0.05, 0.075, 0.10, 0.15, 0.20}

// defaultTracker returns the tracker used unless an experiment varies it —
// Tracktor, the paper's choice (§V-A).
func defaultTracker() track.Tracker { return track.Tracktor() }

// Fig3 regenerates the REC-K curves of the exhaustive baseline on the
// three datasets (Figure 3). One exact ranking per window suffices: REC at
// every K is a prefix recall of the same ranking.
func (s *Suite) Fig3(w io.Writer) map[string][]Point {
	out := make(map[string][]Point)
	t := &Table{
		Title:  "Figure 3: REC-K curves of the exhaustive baseline",
		Header: append([]string{"K"}, Datasets...),
	}
	for _, dsName := range Datasets {
		out[dsName] = s.recKCurve(dsName)
	}
	for ki, K := range KSweep {
		row := []string{f3(K)}
		for _, dsName := range Datasets {
			row = append(row, f3(out[dsName][ki].REC))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: REC > 0.95 for K >= ~0.05 on MOT-17, >= ~0.085 on PathTrack")
	t.Fprint(w)
	printRecKChart(w, "Figure 3 (chart): REC vs K", out)
	return out
}

// recKCurve is one dataset's REC-K curve of the exhaustive baseline,
// averaged over the windows that hold at least one polyonymous pair.
func (s *Suite) recKCurve(dsName string) []Point {
	tr := defaultTracker()
	ds := s.Dataset(dsName)
	recSum := make([]float64, len(KSweep))
	windows := 0
	for i, v := range ds.Videos {
		ts := s.Tracks(dsName, tr, i)
		for _, ps := range s.pairSets(ts, v.NumFrames, ds.WindowLen) {
			truth := motmetrics.PolyonymousPairs(ps)
			if len(truth) == 0 {
				continue
			}
			oracle := reid.NewOracle(s.model, s.newDevice(CPU))
			ranking := core.NewBaseline().Select(ps, oracle, 1.0)
			windows++
			for ki, K := range KSweep {
				n := ps.TopCount(K)
				recSum[ki] += video.Recall(ranking[:min(n, len(ranking))], truth)
			}
		}
	}
	pts := make([]Point, len(KSweep))
	for ki, K := range KSweep {
		rec := 1.0
		if windows > 0 {
			rec = recSum[ki] / float64(windows)
		}
		pts[ki] = Point{Param: K, REC: rec}
	}
	return pts
}

// pairSets enumerates the pair universes of a tracked video under the
// dataset's windowing.
func (s *Suite) pairSets(ts *video.TrackSet, numFrames, windowLen int) []*video.PairSet {
	var out []*video.PairSet
	if windowLen <= 0 {
		w := video.Window{Start: 0, End: video.FrameIndex(numFrames - 1)}
		out = append(out, video.BuildPairSet(w, ts.Sorted(), nil))
		return out
	}
	var prev []*video.Track
	for _, w := range video.Partition(numFrames, windowLen) {
		cur := video.WindowTracks(ts, w)
		out = append(out, video.BuildPairSet(w, cur, prev))
		prev = cur
	}
	return out
}

// Fig5 regenerates the REC-FPS curves of BL, PS, LCB, and TMerge on the
// three datasets (Figure 5), CPU execution.
func (s *Suite) Fig5(w io.Writer) map[string][]Curve {
	out := make(map[string][]Curve)
	for _, dsName := range Datasets {
		out[dsName] = s.recFPSCurves(dsName, CPU, 1)
		t := &Table{
			Title:  fmt.Sprintf("Figure 5: REC-FPS on %s (CPU)", dsName),
			Header: []string{"algorithm", "param", "FPS", "REC"},
		}
		for _, c := range out[dsName] {
			for _, p := range c.Points {
				t.AddRow(c.Name, fmt.Sprintf("%g", p.Param), f2(p.FPS), f3(p.REC))
			}
		}
		t.AddNote("paper shape: at equal REC, TMerge is 10x-100x the FPS of PS and BL; LCB in between")
		t.Fprint(w)
		printRecFPSChart(w, fmt.Sprintf("Figure 5 (chart): REC-FPS on %s", dsName), out[dsName])
	}
	return out
}

// Fig6 regenerates the batched REC-FPS curves with batch sizes 10 and 100
// (Figure 6), accelerator execution.
func (s *Suite) Fig6(w io.Writer) map[string]map[int][]Curve {
	out := make(map[string]map[int][]Curve)
	for _, dsName := range Datasets {
		out[dsName] = make(map[int][]Curve)
		for _, B := range []int{10, 100} {
			out[dsName][B] = s.recFPSCurves(dsName, Accel, B)
			t := &Table{
				Title:  fmt.Sprintf("Figure 6: REC-FPS on %s (accelerator, B=%d)", dsName, B),
				Header: []string{"algorithm", "param", "FPS", "REC"},
			}
			for _, c := range out[dsName][B] {
				for _, p := range c.Points {
					t.AddRow(c.Name, fmt.Sprintf("%g", p.Param), f2(p.FPS), f3(p.REC))
				}
			}
			t.AddNote("paper shape: TMerge-B gains strongly with B; LCB-B barely")
			t.Fprint(w)
			printRecFPSChart(w, fmt.Sprintf("Figure 6 (chart): REC-FPS on %s, B=%d", dsName, B), out[dsName][B])
		}
	}
	return out
}

// recFPSCurves sweeps every algorithm on one dataset. batch > 1 selects
// the "-B" variants on the accelerator.
func (s *Suite) recFPSCurves(dsName string, kind DeviceKind, batch int) []Curve {
	bl := s.blCurve(dsName, kind, batch)
	// PS: sweep eta (trial-averaged over sampling seeds).
	psCurve := Curve{Name: "PS"}
	if batch > 1 {
		psCurve.Name = "PS-B"
	}
	for _, eta := range EtaSweep {
		eta := eta
		r := s.RunTrials(dsName, defaultTracker(), func(trial int) core.Algorithm {
			seed := s.Seed + 11 + uint64(trial)*977
			if batch > 1 {
				return core.NewPSB(eta, batch, seed)
			}
			return core.NewPS(eta, seed)
		}, kind, DefaultK)
		psCurve.Points = append(psCurve.Points, Point{Param: eta, FPS: r.FPS, REC: r.REC})
	}
	return []Curve{
		bl,
		psCurve,
		s.lcbCurve(dsName, kind, batch, TauSweep),
		s.tmergeCurve(dsName, kind, batch, TauSweep, s.Seed+17, nil),
	}
}

// blCurve is BL's single exact point.
func (s *Suite) blCurve(dsName string, kind DeviceKind, batch int) Curve {
	var bl core.Algorithm = core.NewBaseline()
	if batch > 1 {
		bl = core.NewBaselineB(batch)
	}
	r := s.Run(dsName, defaultTracker(), bl, kind, DefaultK)
	return Curve{Name: bl.Name(), Points: []Point{{Param: 0, FPS: r.FPS, REC: r.REC}}}
}

// lcbCurve sweeps LCB over taus; LCB-B runs the same logic on the
// accelerator.
func (s *Suite) lcbCurve(dsName string, kind DeviceKind, batch int, taus []int) Curve {
	c := Curve{Name: "LCB"}
	if batch > 1 {
		c.Name = "LCB-B"
	}
	for _, tau := range taus {
		tau := tau
		r := s.RunTrials(dsName, defaultTracker(), func(trial int) core.Algorithm {
			seed := s.Seed + 13 + uint64(trial)*977
			if batch > 1 {
				return core.NewLCBB(tau, seed)
			}
			return core.NewLCB(tau, seed)
		}, kind, DefaultK)
		c.Points = append(c.Points, Point{Param: float64(tau), FPS: r.FPS, REC: r.REC})
	}
	return c
}

// tmergeCurve sweeps TMerge over taus, trial-averaged; seed is the base
// of the per-trial algorithm seeds, and mutate (when set) edits each
// trial's config after TauMax and Batch are set.
func (s *Suite) tmergeCurve(dsName string, kind DeviceKind, batch int, taus []int, seed uint64, mutate func(*core.TMergeConfig)) Curve {
	c := Curve{Name: "TMerge"}
	if batch > 1 {
		c.Name = "TMerge-B"
	}
	for _, tau := range taus {
		tau := tau
		r := s.RunTrials(dsName, defaultTracker(), func(trial int) core.Algorithm {
			cfg := core.DefaultTMergeConfig(seed + uint64(trial)*977)
			cfg.TauMax = tau
			cfg.Batch = batch
			if mutate != nil {
				mutate(&cfg)
			}
			return core.NewTMerge(cfg)
		}, kind, DefaultK)
		c.Points = append(c.Points, Point{Param: float64(tau), FPS: r.FPS, REC: r.REC})
	}
	return c
}

// Table2 regenerates Table II: the FPS each method achieves at REC=0.80
// and REC=0.93 on MOT-17, plain and batched (B=10, B=100).
func (s *Suite) Table2(w io.Writer) map[string]map[float64]float64 {
	targets := []float64{0.80, 0.93}
	out := make(map[string]map[float64]float64)

	record := func(curves []Curve) {
		for _, c := range curves {
			if out[c.Name] == nil {
				out[c.Name] = make(map[float64]float64)
			}
			for _, target := range targets {
				// BL has no accuracy knob: report its single point when it
				// reaches the target.
				if len(c.Points) == 1 {
					if c.Points[0].REC >= target {
						out[c.Name][target] = c.Points[0].FPS
					}
					continue
				}
				if fps, ok := c.FPSAtREC(target); ok {
					out[c.Name][target] = fps
				}
			}
		}
	}
	record(s.recFPSCurves("mot17", CPU, 1))
	for _, B := range []int{10, 100} {
		curves := s.recFPSCurves("mot17", Accel, B)
		// Tag batched variants with their batch size, as in the paper.
		for i := range curves {
			curves[i].Name = fmt.Sprintf("%s(B=%d)", curves[i].Name, B)
		}
		record(curves)
	}

	t := &Table{
		Title:  "Table II: FPS at fixed REC on MOT-17",
		Header: []string{"method", "FPS@REC=0.80", "FPS@REC=0.93"},
	}
	order := []string{
		"BL", "PS", "LCB", "TMerge",
		"BL-B(B=10)", "PS-B(B=10)", "LCB-B(B=10)", "TMerge-B(B=10)",
		"BL-B(B=100)", "PS-B(B=100)", "LCB-B(B=100)", "TMerge-B(B=100)",
	}
	for _, name := range order {
		row := []string{name}
		for _, target := range targets {
			if fps, ok := out[name][target]; ok {
				row = append(row, f2(fps))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: TMerge 10x-100x PS/BL at equal REC; TMerge-B scales with B, LCB-B does not")
	t.Fprint(w)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
