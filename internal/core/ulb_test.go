package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/tmerge/tmerge/internal/stats"
	"github.com/tmerge/tmerge/internal/xrand"
)

// goldenScene is a pair universe and a K for the pinned Select runs.
type goldenScene struct {
	nGroups, nSingles, boxesPerTrack int
	K                                float64
}

// goldenScenes cover the three regimes of the ULB pass: pruning on both
// sides (mixed), mass "confidently out" pruning that ends the loop
// early (wide), and k = n, where every sampled arm is pruned in at once
// (allIn).
var goldenScenes = map[string]goldenScene{
	"mixed": {3, 3, 20, 0.5},  // 9 tracks -> 36 pairs
	"wide":  {4, 10, 8, 0.05}, // 18 tracks -> 153 pairs
	"allIn": {2, 0, 30, 0.9},  // 4 tracks -> 6 pairs, k = 6
}

// goldenVariants are the TMerge configurations whose Select output is
// pinned. Each exercises a different path through the round loop and
// the ULB pass.
var goldenVariants = map[string]func(*TMergeConfig){
	"default":           func(*TMergeConfig) {},
	"ULBHoeffding":      func(c *TMergeConfig) { c.ULBHoeffding = true },
	"StopWhenSettled":   func(c *TMergeConfig) { c.StopWhenSettled = true },
	"Batch=4":           func(c *TMergeConfig) { c.Batch = 4 },
	"GaussianPosterior": func(c *TMergeConfig) { c.GaussianPosterior = true },
}

// selectDigest runs one Select and renders its selected keys (hashed, in
// rank order) and every diagnostic, floats as exact bit patterns.
func selectDigest(scene, variant string, seed uint64) string {
	sc := goldenScenes[scene]
	fx := newFixture(90, sc.nGroups, sc.nSingles, sc.boxesPerTrack)
	cfg := DefaultTMergeConfig(seed)
	cfg.TauMax = 3000
	goldenVariants[variant](&cfg)
	tm := NewTMerge(cfg)
	sel := tm.Select(fx.ps, newFixtureOracle(7), sc.K)
	h := fnv.New64a()
	for _, k := range sel {
		fmt.Fprintf(h, "%s;", k)
	}
	d := tm.Diagnostics()
	return fmt.Sprintf("n=%d keys=%016x it=%d in=%d out=%d drained=%d regret=%016x sum=%016x",
		len(sel), h.Sum64(), d.Iterations, d.PrunedIn, d.PrunedOut, d.Drained,
		math.Float64bits(d.AvgRegret), math.Float64bits(d.SumDistances))
}

// goldenSelects pin Select bit for bit. They were first recorded from
// the sort-and-binary-search ULB pass (ulbReference below), and any
// change to the pass must reproduce them: pruning decides which arms are
// sampled next, so a single differing decision shifts every later draw.
// The Beta-posterior rows were re-recorded when Gamma moved to the
// ziggurat normal, a change the paper-claims gate (benchrunner -exp
// claims) accepted; the GaussianPosterior rows, which draw no Beta,
// did not move then. All rows were re-recorded again, also accepted by
// that gate, when never-pulled arms moved to grouped prior draws
// (thompson): a round's winners keep their distribution, but every
// stream that draws one moves, and with it which arm is pulled when.
// Three allIn rows kept their digest; on the other allIn rows only the
// last bits of the distance sums moved, since the same six distances are
// summed in another order.
var goldenSelects = []struct {
	scene, variant string
	seed           uint64
	want           string
}{
	{"mixed", "default", 1, "n=18 keys=fca2db9fd3f1d3fc it=3000 in=6 out=7 drained=3 regret=3fc8430b171804e8 sum=4090a2b7fd67b3d7"},
	{"mixed", "default", 2, "n=18 keys=f968c4742ce88174 it=3000 in=5 out=4 drained=3 regret=3fc85a4582770f8d sum=4090ab39a239c1fd"},
	{"mixed", "default", 3, "n=18 keys=da0dfe5feefb26ec it=3000 in=7 out=8 drained=3 regret=3fc89c12f6afe9e0 sum=4090c3529f8993ef"},
	{"mixed", "ULBHoeffding", 1, "n=18 keys=7d5674b0058252bc it=3000 in=0 out=0 drained=3 regret=3fc70b138c071b96 sum=40903079163a4265"},
	{"mixed", "ULBHoeffding", 2, "n=18 keys=dc464d32ebccc5a4 it=3000 in=0 out=0 drained=3 regret=3fc70f62c8f1f0bb sum=4090320d1ac941f4"},
	{"mixed", "ULBHoeffding", 3, "n=18 keys=c508cf1832ff2b80 it=3000 in=0 out=0 drained=4 regret=3fc72988e3db609c sum=40903ba08f243eab"},
	{"mixed", "StopWhenSettled", 1, "n=18 keys=fca2db9fd3f1d3fc it=3000 in=6 out=7 drained=3 regret=3fc8430b171804e8 sum=4090a2b7fd67b3d7"},
	{"mixed", "StopWhenSettled", 2, "n=18 keys=f968c4742ce88174 it=3000 in=5 out=4 drained=3 regret=3fc85a4582770f8d sum=4090ab39a239c1fd"},
	{"mixed", "StopWhenSettled", 3, "n=18 keys=da0dfe5feefb26ec it=3000 in=7 out=8 drained=3 regret=3fc89c12f6afe9e0 sum=4090c3529f8993ef"},
	{"mixed", "Batch=4", 1, "n=18 keys=ad5738293eb97cbc it=3000 in=11 out=9 drained=0 regret=3fcf06f7cdb646ec sum=409320bba1d274d3"},
	{"mixed", "Batch=4", 2, "n=18 keys=bd8af384e6395638 it=3000 in=11 out=9 drained=0 regret=3fcec2a5830ba569 sum=4093081da3966f42"},
	{"mixed", "Batch=4", 3, "n=18 keys=6538702b388b5cd4 it=3000 in=11 out=8 drained=0 regret=3fce4e10bf276a23 sum=4092db8bce650e45"},
	{"mixed", "GaussianPosterior", 1, "n=18 keys=5ba13224f7022318 it=3000 in=8 out=11 drained=3 regret=3fc9722ca5c54b44 sum=409111ba8767a85b"},
	{"mixed", "GaussianPosterior", 2, "n=18 keys=ee4e1bb9fa07255c it=3000 in=7 out=7 drained=3 regret=3fc90a58230674cb sum=4090ebb474864551"},
	{"mixed", "GaussianPosterior", 3, "n=18 keys=2c5a0de788f581c0 it=3000 in=8 out=10 drained=3 regret=3fc98359d8aad92e sum=40911804d4cb3912"},
	{"wide", "default", 1, "n=8 keys=09cb833e6117cc5f it=2009 in=0 out=143 drained=10 regret=3fd678455248d34c sum=408fd0f97300263c"},
	{"wide", "default", 2, "n=8 keys=09cb833e6117cc5f it=2072 in=0 out=143 drained=10 regret=3fd67afd3684aea4 sum=409069922a10e653"},
	{"wide", "default", 3, "n=8 keys=09cb833e6117cc5f it=2088 in=0 out=142 drained=11 regret=3fd684087f2f88e6 sum=40908ea039836a20"},
	{"wide", "ULBHoeffding", 1, "n=8 keys=09cb833e6117cc5f it=3000 in=0 out=0 drained=12 regret=3fd6d24471b8a0ea sum=40980347b65bcf8b"},
	{"wide", "ULBHoeffding", 2, "n=8 keys=09cb833e6117cc5f it=3000 in=0 out=0 drained=12 regret=3fd6c89d3704dd9a sum=4097fc35badd25fe"},
	{"wide", "ULBHoeffding", 3, "n=8 keys=09cb833e6117cc5f it=3000 in=0 out=0 drained=12 regret=3fd6d51ec3ecaf28 sum=4098055e9d90eff9"},
	{"wide", "StopWhenSettled", 1, "n=8 keys=09cb833e6117cc5f it=2009 in=0 out=143 drained=10 regret=3fd678455248d34c sum=408fd0f97300263c"},
	{"wide", "StopWhenSettled", 2, "n=8 keys=09cb833e6117cc5f it=2072 in=0 out=143 drained=10 regret=3fd67afd3684aea4 sum=409069922a10e653"},
	{"wide", "StopWhenSettled", 3, "n=8 keys=09cb833e6117cc5f it=2088 in=0 out=142 drained=11 regret=3fd684087f2f88e6 sum=40908ea039836a20"},
	{"wide", "Batch=4", 1, "n=8 keys=09cb833e6117cc5f it=2039 in=0 out=143 drained=10 regret=3fd68797d7781e88 sum=40902ceda8d2c789"},
	{"wide", "Batch=4", 2, "n=8 keys=09cb833e6117cc5f it=2053 in=0 out=143 drained=10 regret=3fd6797d95f741c6 sum=4090424abc3533fe"},
	{"wide", "Batch=4", 3, "n=8 keys=09cb833e6117cc5f it=2057 in=0 out=142 drained=11 regret=3fd6848af6e9383c sum=40904ff3b8066edb"},
	{"wide", "GaussianPosterior", 1, "n=8 keys=09cb833e6117cc5f it=2064 in=0 out=143 drained=10 regret=3fd68a4d3c9e10fe sum=4090611095affb1d"},
	{"wide", "GaussianPosterior", 2, "n=8 keys=09cb833e6117cc5f it=2117 in=0 out=143 drained=10 regret=3fd68b7fc362e7fe sum=4090cd5ab96a5fcc"},
	{"wide", "GaussianPosterior", 3, "n=8 keys=09cb833e6117cc5f it=2126 in=0 out=142 drained=11 regret=3fd6914bbe5d9018 sum=4090e2a64720a34a"},
	{"allIn", "default", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ada sum=4001cd69bc5a1890"},
	{"allIn", "default", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa57a sum=400174559b55b72b"},
	{"allIn", "default", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd5 sum=400176651eb0ff02"},
	{"allIn", "ULBHoeffding", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ada sum=4001cd69bc5a1890"},
	{"allIn", "ULBHoeffding", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa57a sum=400174559b55b72b"},
	{"allIn", "ULBHoeffding", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd5 sum=400176651eb0ff02"},
	{"allIn", "StopWhenSettled", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ada sum=4001cd69bc5a1890"},
	{"allIn", "StopWhenSettled", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa57a sum=400174559b55b72b"},
	{"allIn", "StopWhenSettled", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd5 sum=400176651eb0ff02"},
	{"allIn", "Batch=4", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ad6 sum=4001cd69bc5a188f"},
	{"allIn", "Batch=4", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa57a sum=400174559b55b72b"},
	{"allIn", "Batch=4", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd5 sum=400176651eb0ff02"},
	{"allIn", "GaussianPosterior", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ada sum=4001cd69bc5a1890"},
	{"allIn", "GaussianPosterior", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa57a sum=400174559b55b72b"},
	{"allIn", "GaussianPosterior", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd5 sum=400176651eb0ff02"},
}

func TestTMergeSelectGolden(t *testing.T) {
	for _, g := range goldenSelects {
		if got := selectDigest(g.scene, g.variant, g.seed); got != g.want {
			t.Errorf("%s/%s seed %d:\n got %s\nwant %s", g.scene, g.variant, g.seed, got, g.want)
		}
	}
}

// ulbReference is the sort-and-binary-search ULB pass that ulb replaced,
// kept as its test oracle: both bound arrays sorted in full, two binary
// searches per active arm, and σ̂ and the radius recomputed from the
// running sums.
func ulbReference(cfg TMergeConfig, arms []pairState, tau, kCount int) {
	n := len(arms)
	lbs := make([]float64, n)
	ubs := make([]float64, n)
	for i := range arms {
		s := &arms[i]
		u := referenceRadius(cfg, s, tau)
		if math.IsInf(u, 1) {
			lbs[i] = math.Inf(-1)
			ubs[i] = math.Inf(1)
			continue
		}
		m := s.mean()
		lbs[i] = m - u
		ubs[i] = m + u
	}
	sortedLB := append([]float64(nil), lbs...)
	sortedUB := append([]float64(nil), ubs...)
	sort.Float64s(sortedLB)
	sort.Float64s(sortedUB)
	for i := range arms {
		s := &arms[i]
		if !s.active() || s.count == 0 {
			continue
		}
		// Pairs that might still beat pair i, excluding itself.
		if sort.SearchFloat64s(sortedLB, ubs[i])-1 <= kCount-1 {
			s.prunedIn = true
			continue
		}
		// Pairs confidently better than pair i.
		if sort.SearchFloat64s(sortedUB, lbs[i]) >= kCount {
			s.prunedOut = true
		}
	}
}

// ulbCannotPruneScan is ulbCannotPrune as a scan over every arm, kept as
// the oracle of the pulled-list count.
func (a *TMerge) ulbCannotPruneScan(arms []pairState, logTau float64, kCount int) bool {
	finite := 0
	for i := range arms {
		s := &arms[i]
		if a.unbounded(s) {
			continue
		}
		if finite++; finite >= kCount {
			return false
		}
		if s.active() && s.count > 0 {
			u, m := a.radius(s, logTau), s.mean()
			if m+u == math.Inf(-1) || math.IsNaN(m-u) {
				return false
			}
		}
	}
	return finite < kCount && len(arms)-finite > kCount
}

// referenceRadius is the confidence radius as ulbReference computed it.
func referenceRadius(cfg TMergeConfig, s *pairState, tau int) float64 {
	if s.sampler.Exhausted() {
		return 0
	}
	if s.count == 0 {
		return math.Inf(1)
	}
	if cfg.ULBHoeffding {
		return stats.HoeffdingRadius(tau, s.count)
	}
	if s.count < 8 {
		return math.Inf(1)
	}
	sd := math.Sqrt(s.variance())
	if sd < 0.02 {
		sd = 0.02
	}
	logTau := math.Log(float64(max(tau, 2)))
	return sd*math.Sqrt(2*logTau/float64(s.count)) + 0.5/float64(s.count)
}

// armKind is one shape of arm state the differential test mixes.
type armKind int

const (
	armRandom     armKind = iota // 8–40 samples of uniform distances
	armFewSamples                // 0–7 samples: ±Inf bounds (empirical radius)
	armDrained                   // universe exhausted: radius 0
	armDrainedNaN                // empty universe, never sampled: NaN bounds
	armTied                      // distances and counts from a tiny set: tied bounds
	armPruned                    // an already-pruned arm: bounds count, decision skipped
	armEcho                      // drained, scored exactly at another arm's bound
	armUnsampled                 // never sampled, universe left: +Inf radius
	armNaNDist                   // sampled, one distance NaN or ±Inf: non-finite bounds
)

// ulbArms builds n arm states of the given kinds, chosen uniformly at
// random per arm. Echo arms are placed last, on the bounds the other arms
// have under cfg at tau, so that a lower bound equals an upper bound
// exactly — the boundary case of both pruning comparisons.
func ulbArms(r *xrand.RNG, n int, kinds []armKind, cfg TMergeConfig, tau int) []pairState {
	arms := make([]pairState, n)
	var echoes []int
	for i := range arms {
		s := &arms[i]
		s.sampler.init(1000, nil)
		kind := kinds[r.Intn(len(kinds))]
		switch kind {
		case armRandom, armPruned:
			for c := 8 + r.Intn(33); c > 0; c-- {
				s.observe(r.Float64())
			}
			if kind == armPruned {
				s.prunedIn = r.Bernoulli(0.5)
				s.prunedOut = !s.prunedIn
			}
		case armFewSamples:
			for c := r.Intn(8); c > 0; c-- {
				s.observe(r.Float64())
			}
		case armDrained:
			for c := 1 + r.Intn(20); c > 0; c-- {
				s.observe(float64(r.Intn(4)) / 4)
			}
			s.sampler.init(0, nil)
		case armDrainedNaN:
			s.sampler.init(0, nil)
		case armEcho:
			echoes = append(echoes, i)
		case armTied:
			for c := 8 * (1 + r.Intn(2)); c > 0; c-- {
				s.observe(0.25 + 0.25*float64(r.Intn(2)))
			}
		case armNaNDist:
			for c := r.Intn(12); c > 0; c-- {
				s.observe(r.Float64())
			}
			s.observe([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)])
		}
	}
	for _, i := range echoes {
		src := &arms[r.Intn(n)]
		u := referenceRadius(cfg, src, tau)
		bound := src.mean() + u
		if r.Bernoulli(0.5) {
			bound = src.mean() - u
		}
		if math.IsInf(u, 1) || math.IsNaN(bound) {
			continue // the source has no finite bound to echo
		}
		s := &arms[i]
		s.sampler.init(0, nil)
		s.observe(bound)
	}
	return arms
}

// TestULBMatchesReference runs ulb and ulbReference over the same random
// and adversarial arm states and requires identical pruning decisions,
// and requires ulbCannotPrune's pulled-list count to agree with a scan
// over every arm.
func TestULBMatchesReference(t *testing.T) {
	profiles := map[string][]armKind{
		"random":  {armRandom},
		"few":     {armFewSamples, armFewSamples, armFewSamples, armRandom},
		"drained": {armDrained, armDrainedNaN, armRandom},
		"tied":    {armTied},
		"echo":    {armRandom, armTied, armEcho},
		"mixed":   {armRandom, armFewSamples, armDrained, armDrainedNaN, armTied, armPruned, armEcho},
		// Mostly unbounded arms, where a pass can return before computing
		// any bound, with a few bounded ones of every shape among them.
		"early":     {armUnsampled, armUnsampled, armUnsampled, armFewSamples, armFewSamples, armRandom},
		"early-nan": {armUnsampled, armUnsampled, armFewSamples, armFewSamples, armDrained, armDrainedNaN, armNaNDist},
	}
	r := xrand.New(5)
	cases, early := 0, 0
	for _, n := range []int{1, 2, 3, 17, 1000} {
		for name, kinds := range profiles {
			for _, hoeffding := range []bool{false, true} {
				for _, k := range []int{0, 1, n / 2, n - 1, n, 1 + r.Intn(n)} {
					for rep := 0; rep < 4; rep++ {
						cfg := DefaultTMergeConfig(1)
						cfg.ULBHoeffding = hoeffding
						tau := 1 + r.Intn(10000)
						arms := ulbArms(r, n, kinds, cfg, tau)
						want := append([]pairState(nil), arms...)
						ulbReference(cfg, want, tau, k)
						a := NewTMerge(cfg)
						ts := newThompson(arms, nil, false)
						logTau := math.Log(float64(max(tau, 2)))
						cannot := a.ulbCannotPrune(arms, ts.pulled, ts.drainedAtStart, logTau, k)
						if scan := a.ulbCannotPruneScan(arms, logTau, k); cannot != scan {
							t.Fatalf("n=%d %s hoeffding=%v k=%d tau=%d: pulled-list count says cannot-prune=%v, full scan %v",
								n, name, hoeffding, k, tau, cannot, scan)
						}
						if cannot {
							early++
						}
						a.ulb(arms, ts.pulled, ts.drainedAtStart, tau, k)
						for i := range arms {
							if arms[i].prunedIn != want[i].prunedIn || arms[i].prunedOut != want[i].prunedOut {
								t.Fatalf("n=%d %s hoeffding=%v k=%d tau=%d arm %d: in/out = %v/%v, reference %v/%v",
									n, name, hoeffding, k, tau, i,
									arms[i].prunedIn, arms[i].prunedOut, want[i].prunedIn, want[i].prunedOut)
							}
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d pruning passes agree, %d of them returned early", cases, early)
	if early == 0 {
		t.Error("no pass returned early: the early exit went untested")
	}
}

// checkKthFloat asserts that kthFloat picks, for every k, an element equal
// to the k-th of the sorted input.
func checkKthFloat(t *testing.T, x []float64) {
	t.Helper()
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	buf := make([]float64, len(x))
	for k := range x {
		copy(buf, x)
		got := kthFloat(buf, k)
		if want := sorted[k]; floatLess(got, want) || floatLess(want, got) {
			t.Fatalf("kthFloat(%v, %d) = %v, sorted[%d] = %v", x, k, got, k, want)
		}
	}
}

func TestKthFloat(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, x := range [][]float64{
		{1},
		{nan},
		{2, 1},
		{inf, -inf, inf, -inf, 0.5, inf, -inf},
		{0, negZero, 0, negZero, -1, 1},
		{nan, 3, nan, -inf, 3, 3, inf, nan},
		{5, 4, 3, 2, 1, 0, -1},
		{1, 1, 1, 1, 1, 1},
	} {
		checkKthFloat(t, x)
	}
	r := xrand.New(9)
	for rep := 0; rep < 200; rep++ {
		x := make([]float64, 1+r.Intn(300))
		for i := range x {
			x[i] = float64(r.Intn(1 + rep%20))
			if r.Bernoulli(0.1) {
				x[i] = []float64{nan, inf, -inf, negZero}[r.Intn(4)]
			}
		}
		checkKthFloat(t, x)
	}
}

// FuzzKthFloat decodes the input as little-endian float64s (any bit
// pattern: NaN payloads, ±Inf, ±0, subnormals, duplicates) and checks the
// selection at every index against a full sort.
func FuzzKthFloat(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(1))
	f.Add(enc(math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)))
	f.Add(enc(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1), 0.5, 0.5, math.NaN()))
	f.Add(enc(3, 1, 2, 3, 1, 2, 3, 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 512)
		if n == 0 {
			return
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkKthFloat(t, x)
	})
}
