package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/motmetrics"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/stats"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// Fig4Row is one video-length point of the baseline scaling experiment.
type Fig4Row struct {
	Frames  int
	Pairs   int           // track pairs accumulated over all windows
	Runtime time.Duration // modeled baseline runtime
}

// Fig4 regenerates Figure 4: exhaustive-baseline runtime and the number of
// accumulated track pairs as PathTrack-style video length grows, window
// size 2000.
func (s *Suite) Fig4(w io.Writer) []Fig4Row {
	lengths := []int{2000, 4000, 6000, 8000}
	tr := defaultTracker()
	profile := dataset.PathTrackLike(s.Seed + 4)
	var rows []Fig4Row
	for li, n := range lengths {
		cfg := profile.Template
		cfg.NumFrames = n
		cfg.Seed = profile.Template.Seed + uint64(li)*7919
		cfg.Name = fmt.Sprintf("fig4-%d", n)
		v, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		ts := tr.Track(v.Detections)
		oracle := reid.NewOracle(s.model, s.newDevice(CPU))
		res := core.RunPipeline(ts, v.NumFrames, oracle, core.PipelineConfig{
			WindowLen: 2000,
			K:         DefaultK,
			Algorithm: core.NewBaseline(),
		})
		pairs := 0
		for _, wr := range res.Windows {
			pairs += wr.Pairs
		}
		rows = append(rows, Fig4Row{Frames: n, Pairs: pairs, Runtime: res.Virtual})
	}
	t := &Table{
		Title:  "Figure 4: baseline runtime and accumulated track pairs vs video length (L=2000)",
		Header: []string{"frames", "track pairs", "runtime (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Frames), fmt.Sprint(r.Pairs), f1(r.Runtime.Seconds()))
	}
	t.AddNote("paper shape: runtime and pair count grow superlinearly and synchronously with length")
	t.Fprint(w)
	return rows
}

// Fig7Row is one τmax point of the TMerge-B convergence experiment.
type Fig7Row struct {
	TauMax  int
	REC     float64
	Runtime time.Duration
}

// Fig7 regenerates Figure 7: TMerge-B (B=10) runtime and REC as τmax
// grows, on MOT-17, with the BL-B total runtime as the reference line.
func (s *Suite) Fig7(w io.Writer) ([]Fig7Row, time.Duration) {
	taus := []int{500, 1000, 2000, 5000, 10000, 20000, 40000}
	tr := defaultTracker()
	var rows []Fig7Row
	for _, tau := range taus {
		tau := tau
		r := s.RunTrials("mot17", tr, func(trial int) core.Algorithm {
			cfg := core.DefaultTMergeConfig(s.Seed + 7 + uint64(trial)*977)
			cfg.TauMax = tau
			cfg.Batch = 10
			return core.NewTMerge(cfg)
		}, Accel, DefaultK)
		rows = append(rows, Fig7Row{TauMax: tau, REC: r.REC, Runtime: r.Virtual})
	}
	blb := s.Run("mot17", tr, core.NewBaselineB(10), Accel, DefaultK)

	t := &Table{
		Title:  "Figure 7: TMerge-B (B=10) runtime and REC vs tau_max on MOT-17",
		Header: []string{"tau_max", "REC", "runtime (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.TauMax), f3(r.REC), f2(r.Runtime.Seconds()))
	}
	t.AddNote("BL-B reference: REC=%.3f, runtime=%.1fs", blb.REC, blb.Virtual.Seconds())
	t.AddNote("paper shape: REC saturates; runtime growth slows as the feature cache fills")
	t.Fprint(w)
	return rows, blb.Virtual
}

// Fig8 regenerates the ablation of Figure 8: REC-FPS curves of full
// TMerge, TMerge without BetaInit, and TMerge without ULB, on MOT-17.
func (s *Suite) Fig8(w io.Writer) []Curve {
	curves := s.ablationCurves(TauSweep)
	t := &Table{
		Title:  "Figure 8: ablation of BetaInit and ULB on MOT-17",
		Header: []string{"variant", "tau_max", "FPS", "REC"},
	}
	for _, c := range curves {
		for _, p := range c.Points {
			t.AddRow(c.Name, fmt.Sprint(int(p.Param)), f2(p.FPS), f3(p.REC))
		}
	}
	t.AddNote("paper shape: w/o BetaInit is the worst curve; w/o ULB sits between it and full TMerge")
	t.Fprint(w)
	printRecFPSChart(w, "Figure 8 (chart): ablation REC-FPS", curves)
	return curves
}

// ablationCurves sweeps full TMerge and its two Figure 8 ablations
// (BetaInit off, ULB off) over taus on MOT-17.
func (s *Suite) ablationCurves(taus []int) []Curve {
	variants := []struct {
		name        string
		useBetaInit bool
		useULB      bool
	}{
		{"TMerge", true, true},
		{"TMerge w/o BetaInit", false, true},
		{"TMerge w/o ULB", true, false},
	}
	var curves []Curve
	for _, v := range variants {
		v := v
		c := s.tmergeCurve("mot17", CPU, 1, taus, s.Seed+8, func(cfg *core.TMergeConfig) {
			cfg.UseBetaInit = v.useBetaInit
			cfg.UseULB = v.useULB
		})
		c.Name = v.name
		curves = append(curves, c)
	}
	return curves
}

// Fig9 regenerates Figure 9: REC of BL and TMerge as the window length L
// varies on PathTrack (Lmax = 1000). Recall here is measured against the
// GLOBAL truth — every polyonymous pair over the whole video — because
// the windowing failure mode the figure demonstrates is exactly that a
// pair whose fragments are separated by more than the window scheme can
// see never enters any window's candidate universe. Per-window recall
// would hide that loss.
func (s *Suite) Fig9(w io.Writer) map[string][]Point {
	ls := []int{1000, 2000, 3000, 4000}
	tr := defaultTracker()
	ds := s.Dataset("pathtrack")

	// Global truth per video: polyonymous pairs over the whole video.
	type gt struct {
		ts    *video.TrackSet
		n     int
		truth map[video.PairKey]bool
	}
	var gts []gt
	for i, v := range ds.Videos {
		ts := s.Tracks("pathtrack", tr, i)
		whole := video.Window{Start: 0, End: video.FrameIndex(v.NumFrames - 1)}
		ps := video.BuildPairSet(whole, ts.Sorted(), nil)
		gts = append(gts, gt{ts: ts, n: v.NumFrames, truth: motmetrics.PolyonymousPairs(ps)})
	}

	out := map[string][]Point{}
	algos := map[string]func(trial int) core.Algorithm{
		"BL": func(int) core.Algorithm { return core.NewBaseline() },
		"TMerge": func(trial int) core.Algorithm {
			// Hold the sampling density constant across L by scaling the
			// budget with |Pc| (SuggestTauMax), as a deployment would.
			cfg := core.DefaultTMergeConfig(s.Seed + 9 + uint64(trial)*977)
			return &adaptiveTau{cfg: cfg}
		},
	}
	for name, mk := range algos {
		trials := s.Trials
		if trials < 1 {
			trials = 3
		}
		if name == "BL" {
			trials = 1 // deterministic
		}
		for _, L := range ls {
			var recSum float64
			n := 0
			for trial := 0; trial < trials; trial++ {
				for _, g := range gts {
					if len(g.truth) == 0 {
						continue
					}
					oracle := reid.NewOracle(s.model, s.newDevice(CPU))
					res := core.RunPipeline(g.ts, g.n, oracle, core.PipelineConfig{
						WindowLen: L,
						K:         DefaultK,
						Algorithm: mk(trial),
					})
					found := 0
					seen := map[video.PairKey]bool{}
					for _, wr := range res.Windows {
						for _, key := range wr.Selected {
							if g.truth[key] && !seen[key] {
								seen[key] = true
								found++
							}
						}
					}
					recSum += float64(found) / float64(len(g.truth))
					n++
				}
			}
			out[name] = append(out[name], Point{Param: float64(L), REC: recSum / float64(n)})
		}
	}
	t := &Table{
		Title:  "Figure 9: global REC vs window length L on PathTrack (Lmax=1000)",
		Header: []string{"L", "BL", "TMerge"},
	}
	for li, L := range ls {
		t.AddRow(fmt.Sprint(L), f3(out["BL"][li].REC), f3(out["TMerge"][li].REC))
	}
	t.AddNote("paper shape: REC dips only at L < 2*Lmax; insensitive for L >= 2*Lmax")
	t.Fprint(w)
	return out
}

// Fig10 regenerates Figure 10: REC-FPS curves of TMerge on MOT-17 for
// several BetaInit thresholds thr_S, including BetaInit disabled.
func (s *Suite) Fig10(w io.Writer) []Curve {
	tr := defaultTracker()
	thrs := []float64{0, 100, 200, 300} // 0 = BetaInit off
	var curves []Curve
	for _, thr := range thrs {
		name := fmt.Sprintf("thr_S=%g", thr)
		if thr == 0 {
			name = "no BetaInit"
		}
		c := Curve{Name: name}
		for _, tau := range TauSweep {
			tau := tau
			r := s.RunTrials("mot17", tr, func(trial int) core.Algorithm {
				cfg := core.DefaultTMergeConfig(s.Seed + 10 + uint64(trial)*977)
				cfg.TauMax = tau
				cfg.ThrS = thr
				cfg.UseBetaInit = thr > 0
				return core.NewTMerge(cfg)
			}, CPU, DefaultK)
			c.Points = append(c.Points, Point{Param: float64(tau), FPS: r.FPS, REC: r.REC})
		}
		curves = append(curves, c)
	}
	t := &Table{
		Title:  "Figure 10: REC-FPS of TMerge varying thr_S on MOT-17",
		Header: []string{"variant", "tau_max", "FPS", "REC"},
	}
	for _, c := range curves {
		for _, p := range c.Points {
			t.AddRow(c.Name, fmt.Sprint(int(p.Param)), f2(p.FPS), f3(p.REC))
		}
	}
	t.AddNote("paper shape: no-BetaInit is the lowest curve; performance is sensitive to thr_S")
	t.Fprint(w)
	printRecFPSChart(w, "Figure 10 (chart): thr_S sweep REC-FPS", curves)
	return curves
}

// Fig11Row reports one tracker's polyonymous rates with and without TMerge.
type Fig11Row struct {
	Tracker      string
	Rate         float64 // |P*c| / |Pc|
	ResidualRate float64 // |P*c \ selected| / |Pc|
}

// Fig11 regenerates Figure 11: the Polyonymous Rate of SORT, DeepSORT, and
// Tracktor on MOT-17 with and without TMerge.
func (s *Suite) Fig11(w io.Writer) []Fig11Row {
	trackers := []track.Tracker{track.SORT(), track.CenterTrack(), track.DeepSORT(), track.UMA(), track.Tracktor()}
	ds := s.Dataset("mot17")
	var rows []Fig11Row
	for _, tr := range trackers {
		totalPairs, totalPoly, totalResidual := 0, 0, 0
		for i, v := range ds.Videos {
			ts := s.Tracks("mot17", tr, i)
			for _, ps := range s.pairSets(ts, v.NumFrames, ds.WindowLen) {
				truth := motmetrics.PolyonymousPairs(ps)
				oracle := reid.NewOracle(s.model, s.newDevice(CPU))
				tm := core.NewTMerge(core.DefaultTMergeConfig(s.Seed + 11))
				selected := tm.Select(ps, oracle, DefaultK)
				residual := len(truth)
				for _, k := range selected {
					if truth[k] {
						residual--
					}
				}
				totalPairs += ps.Len()
				totalPoly += len(truth)
				totalResidual += residual
			}
		}
		row := Fig11Row{Tracker: tr.Name()}
		if totalPairs > 0 {
			row.Rate = float64(totalPoly) / float64(totalPairs)
			row.ResidualRate = float64(totalResidual) / float64(totalPairs)
		}
		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Figure 11: Polyonymous Rate with and without TMerge on MOT-17",
		Header: []string{"tracker", "rate", "rate with TMerge"},
	}
	for _, r := range rows {
		t.AddRow(r.Tracker, fmt.Sprintf("%.3f%%", 100*r.Rate), fmt.Sprintf("%.3f%%", 100*r.ResidualRate))
	}
	t.AddNote("paper compares Tracktor, DeepSORT, UMA; SORT and CenterTrack added for completeness")
	t.AddNote("paper shape: TMerge reduces the rate by >10x; Tracktor fragments least")
	t.Fprint(w)
	return rows
}

// Fig12Result holds the identity metrics before and after merging.
type Fig12Result struct {
	Before, After motmetrics.IdentityMetrics
}

// Fig12 regenerates Figure 12: IDF1/IDP/IDR of Tracktor on MOT-17 with and
// without TMerge (merging the verified candidates).
func (s *Suite) Fig12(w io.Writer) Fig12Result {
	tr := defaultTracker()
	ds := s.Dataset("mot17")
	trials := s.Trials
	if trials < 1 {
		trials = 3
	}
	var sumB, sumA motmetrics.IdentityMetrics
	for trial := 0; trial < trials; trial++ {
		for i, v := range ds.Videos {
			ts := s.Tracks("mot17", tr, i)
			before := motmetrics.Identity(v.GT, ts)
			oracle := reid.NewOracle(s.model, s.newDevice(CPU))
			res := core.RunPipeline(ts, v.NumFrames, oracle, core.PipelineConfig{
				WindowLen: ds.WindowLen,
				K:         DefaultK,
				Algorithm: core.NewTMerge(core.DefaultTMergeConfig(s.Seed + 12 + uint64(trial)*977)),
				Verify:    true,
			})
			after := motmetrics.Identity(v.GT, res.Merged)
			sumB.IDF1 += before.IDF1
			sumB.IDP += before.IDP
			sumB.IDR += before.IDR
			sumA.IDF1 += after.IDF1
			sumA.IDP += after.IDP
			sumA.IDR += after.IDR
		}
	}
	n := float64(len(ds.Videos) * trials)
	out := Fig12Result{
		Before: motmetrics.IdentityMetrics{IDF1: sumB.IDF1 / n, IDP: sumB.IDP / n, IDR: sumB.IDR / n},
		After:  motmetrics.IdentityMetrics{IDF1: sumA.IDF1 / n, IDP: sumA.IDP / n, IDR: sumA.IDR / n},
	}
	t := &Table{
		Title:  "Figure 12: identity metrics of Tracktor on MOT-17 with and without TMerge",
		Header: []string{"metric", "without TMerge", "with TMerge"},
	}
	t.AddRow("IDF1", f3(out.Before.IDF1), f3(out.After.IDF1))
	t.AddRow("IDP", f3(out.Before.IDP), f3(out.After.IDP))
	t.AddRow("IDR", f3(out.Before.IDR), f3(out.After.IDR))
	t.AddNote("paper shape: IDF1 improves by ~5 points; IDP and IDR both improve")
	t.Fprint(w)
	return out
}

// Fig13Result holds the query recalls before and after merging.
type Fig13Result struct {
	CountBefore, CountAfter     float64
	CoOccurBefore, CoOccurAfter float64
}

// Fig13 regenerates Figure 13: recall of the Count and Co-occurring
// Objects queries on MOT-17 with and without TMerge.
func (s *Suite) Fig13(w io.Writer) Fig13Result {
	tr := defaultTracker()
	ds := s.Dataset("mot17")
	countQ := query.CountQuery{MinFrames: 200}
	coQ := query.CoOccurQuery{GroupSize: 3, MinFrames: 50}
	var out Fig13Result
	trials := s.Trials
	if trials < 1 {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		for i, v := range ds.Videos {
			ts := s.Tracks("mot17", tr, i)
			oracle := reid.NewOracle(s.model, s.newDevice(CPU))
			res := core.RunPipeline(ts, v.NumFrames, oracle, core.PipelineConfig{
				WindowLen: ds.WindowLen,
				K:         DefaultK,
				Algorithm: core.NewTMerge(core.DefaultTMergeConfig(s.Seed + 13 + uint64(trial)*977)),
				Verify:    true,
			})
			out.CountBefore += countQ.Recall(v.GT, ts)
			out.CountAfter += countQ.Recall(v.GT, res.Merged)
			out.CoOccurBefore += coQ.Recall(v.GT, ts)
			out.CoOccurAfter += coQ.Recall(v.GT, res.Merged)
		}
	}
	n := float64(len(ds.Videos) * trials)
	out.CountBefore /= n
	out.CountAfter /= n
	out.CoOccurBefore /= n
	out.CoOccurAfter /= n
	t := &Table{
		Title:  "Figure 13: query recall on MOT-17 with and without TMerge",
		Header: []string{"query", "without TMerge", "with TMerge"},
	}
	t.AddRow("Count (>=200 frames)", f3(out.CountBefore), f3(out.CountAfter))
	t.AddRow("Co-occur (3 objs, >=50 frames)", f3(out.CoOccurBefore), f3(out.CoOccurAfter))
	t.AddNote("paper shape: Count recall <0.75 -> >0.95; Co-occur 0.88 -> 0.95")
	t.Fprint(w)
	return out
}

// PearsonResult holds the correlation coefficients backing BetaInit (§IV-C).
type PearsonResult struct {
	Dataset  string
	Spatial  float64 // corr(score, DisS) — paper reports >= 0.3
	Temporal float64 // corr(score, DisT) — paper reports < 0.1
}

// Pearson regenerates the §IV-C measurement: the Pearson correlation
// between exact track-pair scores and the spatial / temporal gap features.
func (s *Suite) Pearson(w io.Writer) []PearsonResult {
	tr := defaultTracker()
	var out []PearsonResult
	for _, dsName := range Datasets {
		ds := s.Dataset(dsName)
		var scores, diss, dist []float64
		for i, v := range ds.Videos {
			ts := s.Tracks(dsName, tr, i)
			for _, ps := range s.pairSets(ts, v.NumFrames, ds.WindowLen) {
				if ps.Len() == 0 {
					continue
				}
				oracle := reid.NewOracle(s.model, s.newDevice(CPU))
				means := oracle.TrackPairMeans(ps.Pairs)
				for pi, p := range ps.Pairs {
					scores = append(scores, means[pi])
					diss = append(diss, p.DisS)
					dist = append(dist, float64(p.DisT))
				}
			}
		}
		out = append(out, PearsonResult{
			Dataset:  dsName,
			Spatial:  stats.Pearson(scores, diss),
			Temporal: stats.Pearson(scores, dist),
		})
	}
	t := &Table{
		Title:  "Section IV-C: Pearson correlation of track-pair score vs gap features",
		Header: []string{"dataset", "corr(score, DisS)", "corr(score, DisT)"},
	}
	for _, r := range out {
		t.AddRow(r.Dataset, f3(r.Spatial), f3(r.Temporal))
	}
	t.AddNote("paper: spatial correlation >= 0.3; temporal < 0.1 (not used by BetaInit)")
	t.Fprint(w)
	return out
}
