package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/tmerge/tmerge/internal/stats"
	"github.com/tmerge/tmerge/internal/xrand"
)

// perArmDraw is the round as it was before prior groups: one posterior
// sample per active arm, in index order, keeping the smallest want. It is
// the distribution oracle of thompson.draw.
func perArmDraw(arms []pairState, want int, gaussian bool, rng *xrand.RNG) (chosen []int, thetas []float64) {
	for i := range arms {
		s := &arms[i]
		if !s.active() {
			continue
		}
		var theta float64
		if gaussian {
			m, sd := s.gaussPosterior()
			theta = rng.Gaussian(m, sd)
		} else {
			theta = rng.Beta(s.beta.S, s.beta.F)
		}
		if len(chosen) < want {
			insertCandidate(&chosen, &thetas, i, theta)
			continue
		}
		if theta < thetas[len(thetas)-1] {
			chosen, thetas = chosen[:len(chosen)-1], thetas[:len(thetas)-1]
			insertCandidate(&chosen, &thetas, i, theta)
		}
	}
	return chosen, thetas
}

// armSpec describes one test arm: its prior group, its BBox pair
// universe, the distances it has observed, and its prune state.
type armSpec struct {
	group    int
	universe int
	ds       []float64
	prunedIn bool
}

// specArms builds arm states the way Select does: the group's prior,
// then one BBox pair draw and one fractional posterior update per
// observed distance.
func specArms(specs []armSpec) []pairState {
	arms := make([]pairState, len(specs))
	for i, sp := range specs {
		beta := stats.NewBeta(1, priorB[sp.group])
		s := &arms[i]
		*s = pairState{beta: beta, priorMean: beta.Mean(), priorWeight: beta.S + beta.F, group: sp.group}
		s.sampler.init(sp.universe, xrand.New(uint64(i)))
		for _, d := range sp.ds {
			s.sampler.Next()
			s.observe(d)
			s.beta = s.beta.ObserveWeighted(d, 3)
		}
		s.prunedIn = sp.prunedIn
	}
	return arms
}

// unpulledArms is m fresh arms of prior group g.
func unpulledArms(g, m int) []pairState {
	specs := make([]armSpec, m)
	for i := range specs {
		specs[i] = armSpec{group: g, universe: 50}
	}
	return specArms(specs)
}

// mixedSpecs interleaves unpulled arms of both priors with pulled arms
// whose posteriors compete with the groups' minima, plus arms that must
// never win: pruned, drained after pulls, and drained at start.
var mixedSpecs = []armSpec{
	{group: 0, universe: 50},
	{group: 1, universe: 50, ds: []float64{0.1}},
	{group: 0, universe: 50, ds: []float64{0.2, 0.15}},
	{group: 1, universe: 50},
	{group: 0, universe: 50},
	{group: 1, universe: 0}, // drained at start
	{group: 0, universe: 50, ds: []float64{0.05}},
	{group: 1, universe: 50},
	{group: 0, universe: 50, ds: []float64{0.3, 0.25, 0.2}},
	{group: 0, universe: 50},
	{group: 1, universe: 50, ds: []float64{0.01, 0.02}, prunedIn: true},
	{group: 0, universe: 50},
	{group: 1, universe: 50, ds: []float64{0.12, 0.08}},
	{group: 1, universe: 50},
	{group: 0, universe: 2, ds: []float64{0.02, 0.03}}, // drained by its pulls
	{group: 0, universe: 50},
	{group: 0, universe: 50, ds: []float64{0.5}},
	{group: 1, universe: 50},
}

// chiSquareCritical approximates the upper α = 1e-4 quantile of the
// chi-square distribution with df degrees of freedom (Wilson–Hilferty).
func chiSquareCritical(df int) float64 {
	const z = 3.719 // standard normal upper 1e-4 quantile
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// homogeneity is the two-sample chi-square statistic of equal-size count
// vectors a and b, with its degrees of freedom.
func homogeneity(a, b []int) (chi2 float64, df int) {
	for i := range a {
		if n := a[i] + b[i]; n > 0 {
			d := float64(a[i] - b[i])
			chi2 += d * d / float64(n)
			df++
		}
	}
	return chi2, df - 1
}

// TestGroupedRoundMatchesPerArm: over 10⁵ rounds, the arm at each rank of
// a grouped round has the distribution it has under the per-arm oracle,
// for both priors mixed with pulled arms, Batch 1 and 4, and the Beta and
// Gaussian posteriors. Inactive arms never win.
func TestGroupedRoundMatchesPerArm(t *testing.T) {
	const rounds = 100000
	for _, gaussian := range []bool{false, true} {
		for _, want := range []int{1, 4} {
			t.Run(fmt.Sprintf("gaussian=%v/batch=%d", gaussian, want), func(t *testing.T) {
				arms := specArms(mixedSpecs)
				n := len(arms)
				grouped := make([][]int, want) // grouped[rank][arm]
				oracle := make([][]int, want)
				for r := range grouped {
					grouped[r], oracle[r] = make([]int, n), make([]int, n)
				}
				ts := newThompson(arms, xrand.New(11), gaussian)
				orng := xrand.New(12)
				for range rounds {
					ts.draw(arms, want)
					chosen, _ := perArmDraw(arms, want, gaussian, orng)
					if len(ts.chosen) != want || len(chosen) != want {
						t.Fatalf("round chose %d arms, oracle %d, want %d", len(ts.chosen), len(chosen), want)
					}
					for r := range want {
						grouped[r][ts.chosen[r]]++
						oracle[r][chosen[r]]++
					}
				}
				for r := range want {
					for i := range arms {
						if !arms[i].active() && grouped[r][i] > 0 {
							t.Fatalf("inactive arm %d won rank %d %d times", i, r, grouped[r][i])
						}
					}
					chi2, df := homogeneity(grouped[r], oracle[r])
					if crit := chiSquareCritical(df); chi2 > crit {
						t.Errorf("rank %d: chi-square %.1f > %.1f (df %d)\n grouped %v\n  oracle %v",
							r, chi2, crit, df, grouped[r], oracle[r])
					}
				}
			})
		}
	}
}

// ksStatistic is the two-sample Kolmogorov–Smirnov statistic; it sorts
// both samples.
func ksStatistic(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestGroupOrderStatisticsKS: the k-th smallest sample of a group of m
// unpulled arms has the distribution of the k-th smallest of m per-arm
// prior draws, for both priors and both posterior families.
func TestGroupOrderStatisticsKS(t *testing.T) {
	const samples = 20000
	// α = 1e-4: c(α) = sqrt(−ln(α/2)/2), times sqrt((n₁+n₂)/(n₁n₂)).
	crit := math.Sqrt(-math.Log(1e-4/2)/2) * math.Sqrt(2.0/samples)
	for _, gaussian := range []bool{false, true} {
		for g := range priorB {
			for _, m := range []int{1, 4, 50} {
				for _, k := range []int{1, 2, 4} {
					if k > m {
						continue
					}
					arms := unpulledArms(g, m)
					ts := newThompson(arms, xrand.DeriveN(21, "ks", g*1000+m*10+k), gaussian)
					orng := xrand.New(uint64(22 + g*1000 + m*10 + k))
					a, b := make([]float64, samples), make([]float64, samples)
					for s := range samples {
						ts.draw(arms, k)
						a[s] = ts.thetas[k-1]
						_, thetas := perArmDraw(arms, k, gaussian, orng)
						b[s] = thetas[k-1]
					}
					if d := ksStatistic(a, b); d > crit {
						t.Errorf("gaussian=%v prior Beta(1,%v) m=%d k=%d: KS D = %.4f > %.4f",
							gaussian, priorB[g], m, k, d, crit)
					}
				}
			}
		}
	}
}

// checkSlots asserts that every group member's slot is its position.
func checkSlots(t *testing.T, arms []pairState, ts *thompson) {
	t.Helper()
	for g, members := range ts.groups {
		for k, i := range members {
			if arms[i].slot != k || arms[i].group != g || arms[i].count != 0 {
				t.Fatalf("group %d position %d holds arm %d with slot %d, group %d, count %d",
					g, k, i, arms[i].slot, arms[i].group, arms[i].count)
			}
		}
	}
}

func TestGroupedRoundEdgeCases(t *testing.T) {
	t.Run("m=1", func(t *testing.T) {
		for _, want := range []int{1, 4} {
			arms := unpulledArms(1, 1)
			ts := newThompson(arms, xrand.New(1), false)
			for range 100 {
				ts.draw(arms, want)
				if !slices.Equal(ts.chosen, []int{0}) || !(ts.thetas[0] >= 0 && ts.thetas[0] <= 1) {
					t.Fatalf("want %d: chosen %v thetas %v", want, ts.chosen, ts.thetas)
				}
			}
		}
	})
	t.Run("empty group", func(t *testing.T) {
		arms := specArms([]armSpec{{0, 9, nil, false}, {0, 9, []float64{0.4}, false}, {0, 9, nil, false}})
		ts := newThompson(arms, xrand.New(2), false)
		if len(ts.groups[1]) != 0 || len(ts.groups[0]) != 2 || !slices.Equal(ts.pulled, []int{1}) {
			t.Fatalf("groups %v pulled %v", ts.groups, ts.pulled)
		}
		for range 100 {
			ts.draw(arms, 2)
			if len(ts.chosen) != 2 || ts.thetas[0] > ts.thetas[1] {
				t.Fatalf("chosen %v thetas %v", ts.chosen, ts.thetas)
			}
		}
	})
	t.Run("every arm pulled", func(t *testing.T) {
		// No group draws: the round is the per-arm loop, draw for draw.
		for _, gaussian := range []bool{false, true} {
			specs := slices.Clone(mixedSpecs)
			for i := range specs {
				if len(specs[i].ds) == 0 {
					specs[i].ds = []float64{0.1 * float64(i%7)}
					specs[i].universe = max(specs[i].universe, 1)
				}
			}
			arms := specArms(specs)
			ts := newThompson(arms, xrand.New(3), gaussian)
			if len(ts.groups[0])+len(ts.groups[1]) != 0 {
				t.Fatalf("groups %v with every arm pulled", ts.groups)
			}
			orng := xrand.New(3)
			for range 1000 {
				ts.draw(arms, 3)
				chosen, thetas := perArmDraw(arms, 3, gaussian, orng)
				if !slices.Equal(ts.chosen, chosen) || !slices.Equal(ts.thetas, thetas) {
					t.Fatalf("gaussian=%v: chosen %v %v, per-arm %v %v", gaussian, ts.chosen, ts.thetas, chosen, thetas)
				}
			}
		}
	})
	t.Run("empty universe", func(t *testing.T) {
		arms := specArms([]armSpec{{1, 0, nil, false}, {1, 5, nil, false}, {0, 0, nil, false}})
		ts := newThompson(arms, xrand.New(4), false)
		if ts.drainedAtStart != 2 || !slices.Equal(ts.groups[1], []int{1}) || len(ts.groups[0]) != 0 {
			t.Fatalf("drainedAtStart %d groups %v", ts.drainedAtStart, ts.groups)
		}
		for range 100 {
			ts.draw(arms, 4)
			if !slices.Equal(ts.chosen, []int{1}) {
				t.Fatalf("chosen %v", ts.chosen)
			}
		}
	})
	t.Run("batch > m", func(t *testing.T) {
		arms := unpulledArms(0, 3)
		ts := newThompson(arms, xrand.New(5), true)
		for range 100 {
			ts.draw(arms, 4)
			got := slices.Clone(ts.chosen)
			slices.Sort(got)
			if !slices.Equal(got, []int{0, 1, 2}) || !slices.IsSorted(ts.thetas) {
				t.Fatalf("chosen %v thetas %v", ts.chosen, ts.thetas)
			}
			checkSlots(t, arms, ts)
		}
	})
	t.Run("pulls leave their group", func(t *testing.T) {
		arms := specArms(mixedSpecs)
		ts := newThompson(arms, xrand.New(6), false)
		unpulled := len(ts.groups[0]) + len(ts.groups[1])
		for unpulled > 0 {
			ts.draw(arms, 2)
			for _, i := range ts.chosen {
				if arms[i].count == 0 {
					ts.pull(arms, i)
					unpulled--
				}
				arms[i].observe(0.5)
				arms[i].beta = arms[i].beta.ObserveWeighted(0.5, 3)
			}
			checkSlots(t, arms, ts)
			if got := len(ts.groups[0]) + len(ts.groups[1]); got != unpulled {
				t.Fatalf("%d arms in groups, %d unpulled", got, unpulled)
			}
		}
		pulled := slices.Clone(ts.pulled)
		slices.Sort(pulled)
		var want []int
		for i := range arms {
			if arms[i].count > 0 {
				want = append(want, i)
			}
		}
		if !slices.Equal(pulled, want) {
			t.Fatalf("pulled list %v, pulled arms %v", pulled, want)
		}
	})
}
