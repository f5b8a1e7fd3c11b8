package bench

import (
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strings"
	"sync"
)

// The gate's pinned workload. The reference samples every band is
// derived from were measured on exactly this workload, so it is fixed:
// on any other the bands would judge nothing.
var (
	// claimSeeds are suite seeds: each drives its own datasets and its
	// own algorithm seeds, so the claims are judged on as many
	// independent scenes as there are seeds.
	claimSeeds = []uint64{42, 43, 44, 45, 46}
	// claimTaus is the LCB and TMerge budget sweep behind the Fig. 5 and
	// Fig. 8 claims.
	claimTaus = []int{1000, 2000, 5000, 10000}
)

// claimVideos truncates every dataset of the gate to this many videos.
const claimVideos = 1

// ClaimSample is one seed's measurements behind the claims.
type ClaimSample struct {
	Seed uint64 `json:"seed"`
	// RecK is the exhaustive baseline's REC-K curve on MOT-17 (Fig. 3).
	RecK []Point `json:"rec_k"`
	// BL and LCB are the Fig. 5 comparators on MOT-17.
	BL  Point `json:"bl"`
	LCB Curve `json:"lcb"`
	// Ablations are full TMerge, TMerge w/o BetaInit and TMerge w/o ULB
	// on MOT-17 (Fig. 8); the full curve is also Fig. 5's TMerge. No
	// check reads the w/o-ULB curve: at these budgets ULB changes no
	// selection, so it matches full TMerge on every seed.
	Ablations []Curve `json:"ablations"`
	// Window is global REC vs window length on PathTrack (Fig. 9).
	Window map[string][]Point `json:"window"`
	// Trackers, Identity and Queries are Figs. 11, 12 and 13.
	Trackers []Fig11Row  `json:"trackers"`
	Identity Fig12Result `json:"identity"`
	Queries  Fig13Result `json:"queries"`
}

// MeasureClaims measures every gate seed, workers seeds at a time, and
// returns the samples in seed order.
func MeasureClaims(workers int) []ClaimSample {
	out := make([]ClaimSample, len(claimSeeds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(workers, 1))
	for i, seed := range claimSeeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, seed uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = measureClaimSeed(seed)
		}(i, seed)
	}
	wg.Wait()
	return out
}

// measureClaimSeed runs one seed's share of the gate on a suite of its
// own (one trial per stochastic point: the seeds are the repetitions).
func measureClaimSeed(seed uint64) ClaimSample {
	s := NewSuite(seed)
	s.VideosPerDataset = claimVideos
	s.Trials = 1
	bl := s.blCurve("mot17", CPU, 1)
	return ClaimSample{
		Seed:      seed,
		RecK:      s.recKCurve("mot17"),
		BL:        bl.Points[0],
		LCB:       s.lcbCurve("mot17", CPU, 1, claimTaus),
		Ablations: s.ablationCurves(claimTaus),
		Window:    s.Fig9(io.Discard),
		Trackers:  s.Fig11(io.Discard),
		Identity:  s.Fig12(io.Discard),
		Queries:   s.Fig13(io.Discard),
	}
}

// A claimCheck is one inequality a claim asserts on the gate's seeds.
// Most checks judge the mean over seeds of a per-seed statistic, which
// must also stay inside the check's band; pooled checks judge a figure of
// the seed-averaged curves instead, the way the harness averages trials,
// and carry only the paper's bound.
type claimCheck struct {
	what    string
	perSeed func(ClaimSample) float64
	pooled  func([]ClaimSample) float64
	// op and paper are the paper's qualitative bound ("" when the check
	// only guards the band).
	op    string // ">", ">=" or "<="
	paper float64
}

// value is the figure the check judges.
func (c claimCheck) value(samples []ClaimSample) float64 {
	if c.pooled != nil {
		return c.pooled(samples)
	}
	sum := 0.0
	for _, s := range samples {
		sum += c.perSeed(s)
	}
	return sum / float64(len(samples))
}

// band is the range a per-seed check's mean over the gate seeds must stay
// in. Its centre is the mean of the per-seed values over every reference
// sample, and its half-width is 4·√2 standard errors of a mean over
// len(claimSeeds) seeds: the √2 because a candidate sampler's mean is
// compared with a mean of other draws, and the standard error taken from
// the spread of all reference values (both samplers, seeds and scenes
// alike), floored at minClaimSE so a statistic the draws cannot move
// still gets a band. DESIGN.md §6 lists each band's false-failure rate.
func (c claimCheck) band() (lo, hi float64) {
	var vals []float64
	for _, ref := range claimReference() {
		for _, s := range ref.samples {
			vals = append(vals, c.perSeed(s))
		}
	}
	mean, sd := meanSD(vals)
	se := math.Max(sd/math.Sqrt(float64(len(claimSeeds))), minClaimSE)
	half := 4 * math.Sqrt2 * se
	return mean - half, mean + half
}

// minClaimSE floors a band's standard error.
const minClaimSE = 0.005

// judge reports whether v passes, and a description of what was judged.
func (c claimCheck) judge(v float64) (bool, string) {
	ok := true
	desc := fmt.Sprintf("%s = %.4f", c.what, v)
	switch c.op {
	case ">":
		ok = v > c.paper
	case ">=":
		ok = v >= c.paper
	case "<=":
		ok = v <= c.paper
	}
	if c.op != "" {
		desc += fmt.Sprintf(" (paper: %s %g)", c.op, c.paper)
	}
	if c.pooled == nil {
		lo, hi := c.band()
		ok = ok && v >= lo && v <= hi
		desc += fmt.Sprintf(" (band [%.4f, %.4f])", lo, hi)
	}
	return ok, desc
}

// claimReference returns the gate's reference samples: its measurements
// on the claim seeds with each sampler the claims were verified on, one
// file of claimsref per sampler, in file-name order. Every band is
// derived from them.
var claimReference = sync.OnceValue(func() []referenceSet {
	entries, err := fs.ReadDir(claimRefs, "claimsref")
	if err != nil {
		panic(err)
	}
	var out []referenceSet
	for _, e := range entries {
		b, err := claimRefs.ReadFile("claimsref/" + e.Name())
		if err != nil {
			panic(err)
		}
		ref := referenceSet{sampler: strings.TrimSuffix(e.Name(), ".json")}
		if err := json.Unmarshal(b, &ref.samples); err != nil {
			panic(fmt.Sprintf("bench: claimsref/%s: %v", e.Name(), err))
		}
		out = append(out, ref)
	}
	return out
})

//go:embed claimsref/*.json
var claimRefs embed.FS

// referenceSet is one sampler's reference samples.
type referenceSet struct {
	sampler string
	samples []ClaimSample
}

// A claim is one qualitative claim of the paper; it holds when every
// check does, and emits one gate_status row.
type claim struct {
	gate   string
	checks []claimCheck
}

// claims are the paper's qualitative claims EXPERIMENTS.md reports as
// reproduced, on the gate's pinned workload. Checks that do not depend on
// the bandit's draws carry bands as well: they pin the scenes the claims
// are judged on. Fig. 8's ULB ablation is not judged: at these budgets
// ULB changes no selection (DESIGN.md §6).
var claims = []claim{
	{"claim_fig3_exhaustive_rec", []claimCheck{{
		what:    "BL REC at K=0.075 on MOT-17",
		perSeed: func(s ClaimSample) float64 { return recAtK(s.RecK, 0.075) },
		op:      ">=", paper: 0.95,
	}}},
	{"claim_fig5_fps_at_equal_rec", []claimCheck{{
		what:    "TMerge - LCB REC at equal budget, mean over the tau sweep",
		perSeed: func(s ClaimSample) float64 { return meanREC(s.Ablations[0]) - meanREC(s.LCB) },
		op:      ">=", paper: 0,
	}, {
		what:   "TMerge / LCB FPS at LCB's best seed-averaged REC",
		pooled: func(ss []ClaimSample) float64 { return fpsRatioAtLCBBest(ss, false) },
		op:     ">=", paper: 1,
	}, {
		what:   "TMerge / BL FPS at LCB's best seed-averaged REC",
		pooled: func(ss []ClaimSample) float64 { return fpsRatioAtLCBBest(ss, true) },
		op:     ">=", paper: 10,
	}}},
	{"claim_fig8_betainit", []claimCheck{{
		what:    "TMerge - TMerge w/o BetaInit REC, mean over the tau sweep",
		perSeed: func(s ClaimSample) float64 { return meanREC(s.Ablations[0]) - meanREC(s.Ablations[1]) },
		op:      ">", paper: 0,
	}}},
	{"claim_fig9_window_length", []claimCheck{{
		what:    "BL global REC(L=2000) - REC(L=1000)",
		perSeed: func(s ClaimSample) float64 { return s.Window["BL"][1].REC - s.Window["BL"][0].REC },
		op:      ">", paper: 0,
	}, {
		what:    "BL global REC spread over L >= 2000",
		perSeed: func(s ClaimSample) float64 { return spread(s.Window["BL"][1:]) },
		op:      "<=", paper: 0.05,
	}, {
		what:    "TMerge global REC(L=1000) - REC(L=2000)",
		perSeed: func(s ClaimSample) float64 { return s.Window["TMerge"][0].REC - s.Window["TMerge"][1].REC },
		op:      "<=", paper: 0.05,
	}, {
		what:    "TMerge global REC, mean over L",
		perSeed: func(s ClaimSample) float64 { return meanREC(Curve{Points: s.Window["TMerge"]}) },
	}}},
	{"claim_fig11_polyonymous_rate", []claimCheck{{
		what:    "SORT - Tracktor polyonymous rate",
		perSeed: func(s ClaimSample) float64 { return s.Trackers[0].Rate - s.Trackers[len(s.Trackers)-1].Rate },
		op:      ">=", paper: 0,
	}, {
		what:    "share of polyonymous pairs TMerge leaves unselected, pooled over trackers",
		perSeed: missedShare,
		op:      "<=", paper: 0.2,
	}}},
	{"claim_fig12_identity", []claimCheck{{
		what:    "IDF1 gain",
		perSeed: func(s ClaimSample) float64 { return s.Identity.After.IDF1 - s.Identity.Before.IDF1 },
		op:      ">", paper: 0,
	}, {
		what:    "IDP gain",
		perSeed: func(s ClaimSample) float64 { return s.Identity.After.IDP - s.Identity.Before.IDP },
		op:      ">", paper: 0,
	}, {
		what:    "IDR gain",
		perSeed: func(s ClaimSample) float64 { return s.Identity.After.IDR - s.Identity.Before.IDR },
		op:      ">", paper: 0,
	}}},
	{"claim_fig13_query_recall", []claimCheck{{
		what:    "Count recall gain",
		perSeed: func(s ClaimSample) float64 { return s.Queries.CountAfter - s.Queries.CountBefore },
		op:      ">=", paper: 0,
	}, {
		what:    "Co-occur recall gain",
		perSeed: func(s ClaimSample) float64 { return s.Queries.CoOccurAfter - s.Queries.CoOccurBefore },
		op:      ">", paper: 0,
	}}},
}

// CheckClaims judges every claim on the samples and returns one
// gate_status row per claim, in claim order.
func CheckClaims(samples []ClaimSample, numCPU int) []GateStatus {
	var out []GateStatus
	for _, c := range claims {
		status := GateOK
		var reasons []string
		for _, chk := range c.checks {
			ok, desc := chk.judge(chk.value(samples))
			if !ok {
				status = GateFailed
				desc = "FAIL " + desc
			}
			reasons = append(reasons, desc)
		}
		out = append(out, NewGateStatus(c.gate, status, fmt.Sprintf("%d seeds: %s", len(samples), strings.Join(reasons, "; ")), numCPU))
	}
	return out
}

// ClaimTable lists every per-seed check's value on each seed next to its
// mean and band: the record a run is judged by, and the values a new
// reference file would hold.
func ClaimTable(samples []ClaimSample) *Table {
	t := &Table{
		Title:  "Paper-claims gate: per-seed values",
		Header: []string{"gate", "check", "per seed", "value", "band"},
	}
	for _, c := range claims {
		for _, chk := range c.checks {
			per, band := "(seed-averaged curves)", "-"
			if chk.pooled == nil {
				var vals []string
				for _, s := range samples {
					vals = append(vals, fmt.Sprintf("%.4f", chk.perSeed(s)))
				}
				per = strings.Join(vals, " ")
				lo, hi := chk.band()
				band = fmt.Sprintf("[%.4f, %.4f]", lo, hi)
			}
			t.AddRow(c.gate, chk.what, per, fmt.Sprintf("%.4f", chk.value(samples)), band)
		}
	}
	return t
}

// recAtK reads a REC-K curve at K.
func recAtK(pts []Point, K float64) float64 {
	for _, p := range pts {
		if math.Abs(p.Param-K) < 1e-9 {
			return p.REC
		}
	}
	return math.NaN()
}

// meanSD is the mean and sample standard deviation of vals.
func meanSD(vals []float64) (mean, sd float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(ss / float64(len(vals)-1))
}

// meanREC is the mean REC over a curve's points.
func meanREC(c Curve) float64 {
	sum := 0.0
	for _, p := range c.Points {
		sum += p.REC
	}
	return sum / float64(len(c.Points))
}

// spread is the REC range over pts.
func spread(pts []Point) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		lo, hi = math.Min(lo, p.REC), math.Max(hi, p.REC)
	}
	return hi - lo
}

// missedShare is the share of a seed's polyonymous pairs, pooled over
// every tracker, that TMerge leaves out of its selection.
func missedShare(s ClaimSample) float64 {
	var rate, residual float64
	for _, r := range s.Trackers {
		rate += r.Rate
		residual += r.ResidualRate
	}
	return residual / rate
}

// averageCurve averages REC and FPS point by point over the seeds.
func averageCurve(samples []ClaimSample, of func(ClaimSample) Curve) Curve {
	out := Curve{Points: append([]Point(nil), of(samples[0]).Points...)}
	for _, s := range samples[1:] {
		for i, p := range of(s).Points {
			out.Points[i].FPS += p.FPS
			out.Points[i].REC += p.REC
		}
	}
	for i := range out.Points {
		out.Points[i].FPS /= float64(len(samples))
		out.Points[i].REC /= float64(len(samples))
	}
	return out
}

// fpsRatioAtLCBBest is TMerge's FPS at the best REC LCB's seed-averaged
// curve reaches, over LCB's FPS there (or over BL's seed-averaged FPS
// when overBL). TMerge not reaching that REC gives 0.
func fpsRatioAtLCBBest(samples []ClaimSample, overBL bool) float64 {
	lcb := averageCurve(samples, func(s ClaimSample) Curve { return s.LCB })
	tm := averageCurve(samples, func(s ClaimSample) Curve { return s.Ablations[0] })
	target := 0.0
	for _, p := range lcb.Points {
		target = math.Max(target, p.REC)
	}
	tmFPS, ok := tm.FPSAtREC(target)
	if !ok {
		return 0
	}
	if overBL {
		bl := averageCurve(samples, func(s ClaimSample) Curve { return Curve{Points: []Point{s.BL}} })
		return tmFPS / bl.Points[0].FPS
	}
	lcbFPS, _ := lcb.FPSAtREC(target)
	return tmFPS / lcbFPS
}
