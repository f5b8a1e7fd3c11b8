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
// did not move.
var goldenSelects = []struct {
	scene, variant string
	seed           uint64
	want           string
}{
	{"mixed", "default", 1, "n=18 keys=4b223d41b6b1892c it=3000 in=5 out=3 drained=3 regret=3fc817ce58600d3a sum=409092e27e8fd4e3"},
	{"mixed", "default", 2, "n=18 keys=ebf4e183d70a222c it=3000 in=7 out=4 drained=3 regret=3fc87c80088b31f3 sum=4090b7c290d3a196"},
	{"mixed", "default", 3, "n=18 keys=827265df402bb5dc it=3000 in=7 out=8 drained=3 regret=3fc8919321d54678 sum=4090bf7a4f568298"},
	{"mixed", "ULBHoeffding", 1, "n=18 keys=2574eb66410379c8 it=3000 in=0 out=0 drained=4 regret=3fc7068485e768e8 sum=40902ecdb5bc26b6"},
	{"mixed", "ULBHoeffding", 2, "n=18 keys=dc464d32ebccc5a4 it=3000 in=0 out=0 drained=4 regret=3fc7118d88a5c52b sum=409032d8427d5d00"},
	{"mixed", "ULBHoeffding", 3, "n=18 keys=f42ef5eca57147fc it=3000 in=0 out=0 drained=4 regret=3fc724d562cabe4a sum=409039e7d2a06739"},
	{"mixed", "StopWhenSettled", 1, "n=18 keys=4b223d41b6b1892c it=3000 in=5 out=3 drained=3 regret=3fc817ce58600d3a sum=409092e27e8fd4e3"},
	{"mixed", "StopWhenSettled", 2, "n=18 keys=ebf4e183d70a222c it=3000 in=7 out=4 drained=3 regret=3fc87c80088b31f3 sum=4090b7c290d3a196"},
	{"mixed", "StopWhenSettled", 3, "n=18 keys=827265df402bb5dc it=3000 in=7 out=8 drained=3 regret=3fc8919321d54678 sum=4090bf7a4f568298"},
	{"mixed", "Batch=4", 1, "n=18 keys=b61cb323ad5878b4 it=3000 in=11 out=11 drained=0 regret=3fcf9d81a1332764 sum=4093601b276d9f02"},
	{"mixed", "Batch=4", 2, "n=18 keys=bd8af384e6395638 it=3000 in=11 out=7 drained=0 regret=3fcf07cd1f50f768 sum=40931dfb59d9c8cb"},
	{"mixed", "Batch=4", 3, "n=18 keys=b053ff8c6739d964 it=3000 in=11 out=11 drained=0 regret=3fd02b60a2dd22b7 sum=409397ae7919686e"},
	{"mixed", "GaussianPosterior", 1, "n=18 keys=5e8107fff8f8bea8 it=3000 in=8 out=11 drained=3 regret=3fc9aaca2073047e sum=409126763314c6f0"},
	{"mixed", "GaussianPosterior", 2, "n=18 keys=ee4e1bb9fa07255c it=3000 in=7 out=7 drained=3 regret=3fc911894436884b sum=4090ee56b26da075"},
	{"mixed", "GaussianPosterior", 3, "n=18 keys=a3b5fa92c5b6f778 it=3000 in=8 out=10 drained=3 regret=3fc95c34a1fde16c sum=409109aef4056157"},
	{"wide", "default", 1, "n=8 keys=09cb833e6117cc5f it=2039 in=0 out=143 drained=10 regret=3fd6829df3465142 sum=40902a73834a3cea"},
	{"wide", "default", 2, "n=8 keys=09cb833e6117cc5f it=2044 in=0 out=143 drained=10 regret=3fd679429eae91f4 sum=40902fee22b6d151"},
	{"wide", "default", 3, "n=8 keys=09cb833e6117cc5f it=2066 in=0 out=142 drained=11 regret=3fd6834e17b72c5a sum=409061994810b5a8"},
	{"wide", "ULBHoeffding", 1, "n=8 keys=09cb833e6117cc5f it=3000 in=0 out=0 drained=12 regret=3fd6c82980ed72ec sum=4097fbe0fafeff5c"},
	{"wide", "ULBHoeffding", 2, "n=8 keys=09cb833e6117cc5f it=3000 in=0 out=0 drained=12 regret=3fd6d185a3f722ce sum=409802bbf6a897ae"},
	{"wide", "ULBHoeffding", 3, "n=8 keys=09cb833e6117cc5f it=3000 in=0 out=0 drained=12 regret=3fd6dfc3405309d4 sum=40980d2a16ade762"},
	{"wide", "StopWhenSettled", 1, "n=8 keys=09cb833e6117cc5f it=2039 in=0 out=143 drained=10 regret=3fd6829df3465142 sum=40902a73834a3cea"},
	{"wide", "StopWhenSettled", 2, "n=8 keys=09cb833e6117cc5f it=2044 in=0 out=143 drained=10 regret=3fd679429eae91f4 sum=40902fee22b6d151"},
	{"wide", "StopWhenSettled", 3, "n=8 keys=09cb833e6117cc5f it=2066 in=0 out=142 drained=11 regret=3fd6834e17b72c5a sum=409061994810b5a8"},
	{"wide", "Batch=4", 1, "n=8 keys=09cb833e6117cc5f it=2005 in=0 out=143 drained=10 regret=3fd6836bb161dde8 sum=408fcbac58587269"},
	{"wide", "Batch=4", 2, "n=8 keys=09cb833e6117cc5f it=2071 in=0 out=143 drained=10 regret=3fd67f508e980232 sum=409069baf0fab52a"},
	{"wide", "Batch=4", 3, "n=8 keys=09cb833e6117cc5f it=2036 in=0 out=142 drained=11 regret=3fd681ffd0f0e068 sum=4090240e23ca7c19"},
	{"wide", "GaussianPosterior", 1, "n=8 keys=09cb833e6117cc5f it=2080 in=0 out=143 drained=10 regret=3fd68dccbeaed4aa sum=4090835874aa0367"},
	{"wide", "GaussianPosterior", 2, "n=8 keys=09cb833e6117cc5f it=2132 in=0 out=143 drained=10 regret=3fd68c2f83234a0c sum=4090ec30605647fd"},
	{"wide", "GaussianPosterior", 3, "n=8 keys=09cb833e6117cc5f it=2098 in=0 out=142 drained=11 regret=3fd6889e22f252d8 sum=4090a54627629dce"},
	{"allIn", "default", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ad6 sum=4001cd69bc5a188f"},
	{"allIn", "default", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa578 sum=400174559b55b72a"},
	{"allIn", "default", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd3 sum=400176651eb0ff01"},
	{"allIn", "ULBHoeffding", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ad6 sum=4001cd69bc5a188f"},
	{"allIn", "ULBHoeffding", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa578 sum=400174559b55b72a"},
	{"allIn", "ULBHoeffding", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd3 sum=400176651eb0ff01"},
	{"allIn", "StopWhenSettled", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ad6 sum=4001cd69bc5a188f"},
	{"allIn", "StopWhenSettled", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa578 sum=400174559b55b72a"},
	{"allIn", "StopWhenSettled", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd3 sum=400176651eb0ff01"},
	{"allIn", "Batch=4", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ad6 sum=4001cd69bc5a188f"},
	{"allIn", "Batch=4", 2, "n=6 keys=41104c280ba85cd1 it=6 in=6 out=0 drained=0 regret=3fca79bc378fa578 sum=400174559b55b72a"},
	{"allIn", "Batch=4", 3, "n=6 keys=0562808647a95719 it=6 in=6 out=0 drained=0 regret=3fc8114b69685dd3 sum=400176651eb0ff01"},
	{"allIn", "GaussianPosterior", 1, "n=6 keys=3d9c4baee9a66069 it=6 in=6 out=0 drained=0 regret=3fcefca2b0369ad6 sum=4001cd69bc5a188f"},
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
// and adversarial arm states and requires identical pruning decisions.
func TestULBMatchesReference(t *testing.T) {
	profiles := map[string][]armKind{
		"random":  {armRandom},
		"few":     {armFewSamples, armFewSamples, armFewSamples, armRandom},
		"drained": {armDrained, armDrainedNaN, armRandom},
		"tied":    {armTied},
		"echo":    {armRandom, armTied, armEcho},
		"mixed":   {armRandom, armFewSamples, armDrained, armDrainedNaN, armTied, armPruned, armEcho},
	}
	r := xrand.New(5)
	cases := 0
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
						NewTMerge(cfg).ulb(arms, tau, k)
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
	t.Logf("%d pruning passes agree", cases)
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
