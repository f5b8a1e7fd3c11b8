package core

import (
	"fmt"
	"math"

	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/stats"
	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

// TMergeConfig parameterises the TMerge algorithm.
type TMergeConfig struct {
	// TauMax is the iteration budget τmax — the total number of BBox pair
	// distances evaluated (Algorithm 2). The paper's default is 10,000.
	TauMax int
	// ThrS is the BetaInit spatial-distance threshold thr_S in pixels
	// (Algorithm 3). The paper's default is 200.
	ThrS float64
	// UseBetaInit enables the BetaInit prior (Algorithm 3); disabled in
	// the Figure 8 ablation.
	UseBetaInit bool
	// UseULB enables confidence-bound pruning (Algorithm 4); disabled in
	// the Figure 8 ablation.
	UseULB bool
	// ULBHoeffding selects the literal confidence radius of Algorithm 4,
	// U = sqrt(2·lnτ/n), which treats distances as range-1 sub-Gaussian.
	// That radius is far too conservative for ReID distances, whose
	// within-pair standard deviation is a few percent of the range — with
	// the paper's own τmax and pair counts it never prunes anything. The
	// default (false) therefore uses an empirical-Bernstein-style radius,
	// σ̂·sqrt(2·lnτ/n) + 0.5/n, which is the same bound sharpened by the
	// observed variance and lets ULB deliver the pruning effect the
	// paper's ablation (Figure 8) attributes to it.
	ULBHoeffding bool
	// Batch is the number of track pairs evaluated jointly per iteration
	// round (TMerge-B, §IV-F). 1 is the sequential algorithm.
	Batch int
	// LiteralBernoulli performs the paper's explicit Bernoulli trial with
	// success probability d̃ and updates the Beta posterior with the
	// binary outcome (Algorithm 2, lines 9-13). The default (false) uses
	// the fractional update S += d̃, F += 1-d̃ — the bounded-reward
	// Thompson sampling of Agrawal & Goyal, of which the Bernoulli trial
	// is the randomised, equal-expectation, higher-variance version. The
	// fractional update converges with fewer oracle calls; both variants
	// are compared by BenchmarkAblationPosterior.
	LiteralBernoulli bool
	// PosteriorWeight is the pseudo-observation weight w of each
	// fractional update (ignored under LiteralBernoulli): the posterior
	// after n samples behaves as if it had seen w·n Bernoulli outcomes.
	// One ReID distance aggregates an entire pair of crops and is far
	// more informative than a single Bernoulli bit, so w > 1 is
	// justified; it tempers Thompson sampling's exploration toward
	// exploitation, which matters when the pair universe is large
	// relative to τmax. Values <= 0 default to 3.
	PosteriorWeight float64
	// LiteralRanking ranks the final candidates by the raw Beta posterior
	// mean S/(S+F), exactly as Algorithm 2 line 15 is written. The
	// default (false) Rao-Blackwellises that estimator: each Bernoulli
	// trial's outcome r is replaced in the ranking statistic by its
	// conditional expectation d̃ — identical in expectation, strictly
	// lower variance, so fewer samples are wasted re-resolving ranking
	// noise the algorithm itself injected. Exploration (the Thompson
	// sampling over Beta posteriors, lines 4-13) is untouched.
	LiteralRanking bool
	// GaussianPosterior replaces the paper's Bernoulli-trial/Beta
	// machinery with a direct Gaussian posterior on the score: θ is drawn
	// from N(posterior mean, σ0/sqrt(n+1)). This ablation (DESIGN.md §5)
	// measures how much the extra Bernoulli randomisation costs or buys;
	// the paper's construction exists because Beta/Bernoulli conjugacy
	// makes updates trivial, not because it is statistically optimal.
	GaussianPosterior bool
	// StopWhenSettled ends the loop before TauMax once ULB has pruned at
	// least ⌈K·|Pc|⌉ pairs "confidently in the top-K" — the candidate set
	// is then fully confirmed and further sampling cannot change it. An
	// extension beyond the paper (which always runs to τmax); requires
	// UseULB.
	StopWhenSettled bool
	// Seed drives Thompson sampling and BBox pair selection.
	Seed uint64
}

// DefaultTMergeConfig returns the paper's default configuration
// (τmax = 10,000, thr_S = 200, BetaInit and ULB enabled, sequential).
func DefaultTMergeConfig(seed uint64) TMergeConfig {
	return TMergeConfig{
		TauMax:      10000,
		ThrS:        200,
		UseBetaInit: true,
		UseULB:      true,
		Batch:       1,
		Seed:        seed,
	}
}

// TMergeDiagnostics reports what happened inside a Select call.
type TMergeDiagnostics struct {
	Iterations   int     // BBox pair evaluations actually performed
	PrunedIn     int     // pairs pruned as "confidently in the top-K"
	PrunedOut    int     // pairs pruned as "confidently out"
	Drained      int     // pairs whose BBox pair universe was exhausted
	AvgRegret    float64 // (1/τ)·Σ(d̃τ − s̃min) with s̃min estimated post hoc
	SumDistances float64
}

// TMerge is Algorithm 2: Thompson sampling over track pairs. Each pair
// carries a Beta(S, F) posterior on its normalised score; at every
// iteration the pair with the smallest posterior sample is examined — one
// BBox pair is drawn without replacement, its normalised ReID distance d̃
// becomes the success probability of a Bernoulli trial, and the trial's
// outcome updates the posterior. Low-score (similar-looking) pairs
// accumulate failures, their posterior mean drops, and sampling
// concentrates on them: computation flows to the pairs most likely to be
// polyonymous.
//
// A round draws one posterior sample per pulled pair, but not one per
// never-pulled pair: those still hold one of two priors, and each prior
// group's smallest samples are drawn directly from their order-statistic
// distribution (see thompson), so a round's winners have the
// distribution of the per-pair loop at the cost of the pulled pairs.
type TMerge struct {
	cfg TMergeConfig

	// diag holds the diagnostics of the most recent Select call. TMerge
	// is not safe for concurrent Select calls.
	diag TMergeDiagnostics

	// ulb scratch, reused across the (up to τmax) pruning passes of one
	// Select call and across Select calls. Every element is overwritten
	// before use, so reuse cannot leak state between windows; the
	// parallel executor clones TMerge per window (CloneAlgorithm), so no
	// two concurrent Selects share these buffers. ulbSelLB and ulbSelUB
	// are copies of the bounds that the order-statistic selection
	// reorders in place.
	ulbLB, ulbUB, ulbSelLB, ulbSelUB []float64
	// dists is the reused DistanceBatchInto output buffer of the
	// per-round oracle call.
	dists []float64
}

// NewTMerge returns a TMerge instance for the configuration.
func NewTMerge(cfg TMergeConfig) *TMerge {
	if cfg.TauMax <= 0 {
		panic(fmt.Sprintf("core: TMerge TauMax must be positive, got %d", cfg.TauMax))
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.PosteriorWeight <= 0 {
		cfg.PosteriorWeight = 3
	}
	return &TMerge{cfg: cfg}
}

// Name implements Algorithm.
func (a *TMerge) Name() string {
	name := "TMerge"
	if a.cfg.GaussianPosterior {
		name = "TMerge-G"
	}
	if a.cfg.Batch > 1 {
		name += "-B"
	}
	return name
}

// Config returns the configuration.
func (a *TMerge) Config() TMergeConfig { return a.cfg }

// CloneAlgorithm returns an independent TMerge with the same
// configuration (Cloner). TMerge carries per-Select diagnostics, so the
// parallel executor must give each concurrent window its own instance;
// selection itself derives its random streams from the configured seed
// per call, so a clone selects bit-identically to its parent.
func (a *TMerge) CloneAlgorithm() Algorithm { return NewTMerge(a.cfg) }

// Diagnostics returns the diagnostics of the most recent Select call.
func (a *TMerge) Diagnostics() TMergeDiagnostics { return a.diag }

// gaussSigma0 is the prior standard deviation of the Gaussian-posterior
// variant.
const gaussSigma0 = 0.35

// pairState is the per-arm bandit state.
type pairState struct {
	beta stats.Beta
	// sampler is embedded by value: the arm slice is one contiguous
	// allocation, so per-pair sampler setup allocates nothing.
	sampler indexSampler
	count   int     // n_{i,j}: times this pair has been sampled
	sum     float64 // Σ d̃ over its samples
	sumSq   float64 // Σ d̃² (for the variance-aware ULB radius)
	// sd is σ̂, the observed standard deviation floored at minSD, kept
	// current by observe so the ULB pass need not recompute it for every
	// arm in every round.
	sd float64
	// priorMean and priorWeight are the prior pseudo-observations (from
	// Be(1,1) or the BetaInit prior Be(1,2)), used by the
	// Rao-Blackwellised ranking and the Gaussian-posterior variant.
	priorMean   float64
	priorWeight float64
	// prune status
	prunedIn, prunedOut bool
	// group indexes the arm's prior group (thompson.groups) and slot its
	// position in that group's member list while the arm is unpulled.
	group, slot int
}

// gaussPosterior returns the posterior mean and stddev of the
// Gaussian-posterior variant: the prior acts as one pseudo-observation.
func (s *pairState) gaussPosterior() (mean, sd float64) {
	n := float64(s.count)
	mean = (s.priorMean + s.sum) / (n + 1)
	sd = gaussSigma0 / math.Sqrt(n+1)
	return mean, sd
}

// shrunkMean is the Rao-Blackwellised ranking statistic: the posterior
// mean computed from accumulated d̃ values (each Bernoulli trial replaced
// by its conditional expectation), with the Beta prior's pseudo-counts as
// shrinkage.
func (s *pairState) shrunkMean() float64 {
	return (s.priorMean*s.priorWeight + s.sum) / (s.priorWeight + float64(s.count))
}

// variance returns the (population) variance of the pair's observed
// distances.
func (s *pairState) variance() float64 {
	if s.count == 0 {
		return 0
	}
	m := s.mean()
	v := s.sumSq/float64(s.count) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// observe folds one evaluated distance into the arm's running sums and
// refreshes σ̂.
func (s *pairState) observe(d float64) {
	s.count++
	s.sum += d
	s.sumSq += d * d
	s.sd = math.Sqrt(s.variance())
	const minSD = 0.02
	if s.sd < minSD {
		s.sd = minSD
	}
}

func (s *pairState) active() bool {
	return !s.prunedIn && !s.prunedOut && !s.sampler.Exhausted()
}

func (s *pairState) mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// Select implements Algorithm.
func (a *TMerge) Select(ps *video.PairSet, oracle *reid.Oracle, K float64) []video.PairKey {
	a.diag = TMergeDiagnostics{}
	n := ps.Len()
	if n == 0 {
		return nil
	}
	kCount := ps.TopCount(K)

	// Line 1: initialise Beta posteriors (Algorithm 3). The arm states
	// live in one contiguous slice — one allocation for the whole window
	// instead of one per pair.
	arms := make([]pairState, n)
	bernRng := xrand.Derive(a.cfg.Seed, "tmerge:bernoulli")
	for i, p := range ps.Pairs {
		g := 0
		if a.cfg.UseBetaInit && p.DisS < a.cfg.ThrS {
			// BetaInit: spatially close pairs get a lower prior mean so
			// they are explored first (Algorithm 3, line 3).
			g = 1
		}
		beta := stats.NewBeta(1, priorB[g])
		arms[i] = pairState{
			beta:        beta,
			priorMean:   beta.Mean(),
			priorWeight: beta.S + beta.F,
			group:       g,
		}
		arms[i].sampler.init(p.NumBBoxPairs(), xrand.DeriveN(a.cfg.Seed, "tmerge:boxes:"+p.Key.String(), i))
	}
	ts := newThompson(arms, xrand.Derive(a.cfg.Seed, "tmerge:thompson"), a.cfg.GaussianPosterior)

	tau := 0
	batch := make([][2]video.BBox, 0, a.cfg.Batch)
	for tau < a.cfg.TauMax {
		// Lines 4-6: Thompson-sample every active pair and keep the
		// smallest Batch samples (Batch == 1 reproduces the sequential
		// argmin).
		want := a.cfg.Batch
		if tau+want > a.cfg.TauMax {
			want = a.cfg.TauMax - tau
		}
		ts.draw(arms, want)
		if len(ts.chosen) == 0 {
			break // everything pruned or drained
		}

		// Lines 7-8: draw one BBox pair per chosen track pair and evaluate
		// the whole round as one device submission.
		batch = batch[:0]
		for _, idx := range ts.chosen {
			ba, bb := ps.Pairs[idx].BBoxPairAt(arms[idx].sampler.Next())
			batch = append(batch, [2]video.BBox{ba, bb})
		}
		a.dists = oracle.DistanceBatchInto(a.dists[:0], batch)
		dists := a.dists

		// Lines 9-13: posterior update from d̃ — a literal Bernoulli trial
		// or the fractional bounded-reward update (see
		// TMergeConfig.LiteralBernoulli).
		for k, idx := range ts.chosen {
			d := dists[k]
			s := &arms[idx]
			if s.count == 0 {
				ts.pull(arms, idx)
			}
			s.observe(d)
			if a.cfg.LiteralBernoulli {
				s.beta = s.beta.Observe(bernRng.Bernoulli(d))
			} else {
				s.beta = s.beta.ObserveWeighted(d, a.cfg.PosteriorWeight)
			}
			a.diag.SumDistances += d
		}
		tau += len(ts.chosen)
		a.diag.Iterations = tau

		// Line 14: ULB pruning (Algorithm 4). It prunes only pulled
		// arms, so settling is counted over those.
		if a.cfg.UseULB {
			a.ulb(arms, ts.pulled, ts.drainedAtStart, tau, kCount)
			if a.cfg.StopWhenSettled {
				settled := 0
				for _, i := range ts.pulled {
					if arms[i].prunedIn {
						settled++
					}
				}
				if settled >= kCount {
					break
				}
			}
		}
	}

	for i := range arms {
		s := &arms[i]
		if s.prunedIn {
			a.diag.PrunedIn++
		}
		if s.prunedOut {
			a.diag.PrunedOut++
		}
		if s.sampler.Exhausted() {
			a.diag.Drained++
		}
	}
	a.computeRegret(arms, tau)

	// Line 15: rank by posterior mean. The default is the
	// Rao-Blackwellised statistic (see TMergeConfig.LiteralRanking); the
	// literal S/(S+F) and the Gaussian posterior mean are variants.
	scored := make([]scoredPair, n)
	for i, p := range ps.Pairs {
		var score float64
		switch {
		case a.cfg.GaussianPosterior:
			score, _ = arms[i].gaussPosterior()
		case a.cfg.LiteralRanking:
			score = arms[i].beta.Mean()
		default:
			score = arms[i].shrunkMean()
		}
		scored[i] = scoredPair{key: p.Key, score: score}
	}
	return rankAndTruncate(scored, ps, K)
}

// insertCandidate inserts (idx, theta) into the parallel slices kept
// sorted ascending by theta (ties by index).
func insertCandidate(chosen *[]int, thetas *[]float64, idx int, theta float64) {
	c, t := *chosen, *thetas
	pos := len(t)
	for pos > 0 && (t[pos-1] > theta || (t[pos-1] == theta && c[pos-1] > idx)) {
		pos--
	}
	c = append(c, 0)
	t = append(t, 0)
	copy(c[pos+1:], c[pos:])
	copy(t[pos+1:], t[pos:])
	c[pos] = idx
	t[pos] = theta
	*chosen, *thetas = c, t
}

// priorB holds the second shape of each prior group's Beta(1, b) prior:
// the uninformed Beta(1, 1) and BetaInit's Beta(1, 2) (Algorithm 3).
var priorB = [2]float64{1, 2}

// thompson draws the rounds of one Select call (Algorithm 2, lines 4-6).
//
// An arm that has never been pulled still holds its prior, and ULB never
// prunes it, so the active unpulled arms fall into one group per prior.
// The m arms of a group are i.i.d. draws from one distribution F, so
// their smallest samples are F⁻¹ of the smallest of m uniforms, and the
// arms that hold them are a uniform random selection without
// replacement, independent of the values. With lq = ln(1 − U) for the
// ascending uniform order statistics U₍₁₎ ≤ U₍₂₎ ≤ …, the survival
// 1 − U₍₁₎ is the largest of m uniforms, V^(1/m), and given U₍ⱼ₎ the
// rest are uniform above it, so
//
//	lq₁ = ln V₁ / m,   lqⱼ₊₁ = lqⱼ + ln Vⱼ₊₁ / (m − j).
//
// For Beta(1, b), F⁻¹(u) = 1 − (1 − u)^(1/b), so θ = −expm1(lq / b);
// at j = 1 that is the Beta(1, m·b) minimum. For the Gaussian variant's
// prior N(μ, σ₀), θ = μ + σ₀·Φ⁻¹(−expm1(lq)). A round draws each
// non-empty group's smallest min(want, m) samples, in group order, then
// one posterior sample per active pulled arm, in order of first pull,
// and keeps the smallest want of them: the same winners, in
// distribution, as drawing every active arm, since only a group's
// smallest want samples can be among them.
type thompson struct {
	rng      *xrand.RNG
	gaussian bool
	// groups[g] lists the active arms that still hold prior g, in no
	// particular order; arms[i].slot is arm i's position there.
	groups [2][]int
	// pulled lists every arm pulled at least once, in order of first
	// pull — pruned and drained ones included, for the ULB count.
	pulled []int
	// drainedAtStart counts the arms whose BBox pair universe was empty
	// at Select start: never pulled, never in a group, radius 0.
	drainedAtStart int
	// chosen and thetas are the round's winners, ascending by sample.
	chosen []int
	thetas []float64
}

// newThompson sorts arms into the pulled list (count > 0, in index order)
// and the prior groups (unpulled arms with BBox pairs left).
func newThompson(arms []pairState, rng *xrand.RNG, gaussian bool) *thompson {
	t := &thompson{rng: rng, gaussian: gaussian}
	for i := range arms {
		s := &arms[i]
		switch {
		case s.count > 0:
			t.pulled = append(t.pulled, i)
		case s.sampler.Exhausted():
			t.drainedAtStart++
		default:
			s.slot = len(t.groups[s.group])
			t.groups[s.group] = append(t.groups[s.group], i)
		}
	}
	return t
}

// pull moves unpulled arm i from its prior group to the pulled list,
// before its first observation.
func (t *thompson) pull(arms []pairState, i int) {
	members := t.groups[arms[i].group]
	last := len(members) - 1
	moved := members[last]
	members[arms[i].slot] = moved
	arms[moved].slot = arms[i].slot
	t.groups[arms[i].group] = members[:last]
	t.pulled = append(t.pulled, i)
}

// draw runs one round's Thompson draws and leaves the smallest want
// samples, with their arms, in chosen and thetas.
func (t *thompson) draw(arms []pairState, want int) {
	t.chosen, t.thetas = t.chosen[:0], t.thetas[:0]
	for g, members := range t.groups {
		m := len(members)
		lq := 0.0
		for j := 0; j < min(want, m); j++ {
			lq -= t.rng.Exp(float64(m - j)) // ln Vⱼ₊₁ / (m − j)
			// Partial Fisher–Yates: members[j] becomes a uniform pick
			// among the members not yet drawn this round.
			r := j + t.rng.Intn(m-j)
			members[j], members[r] = members[r], members[j]
			arms[members[j]].slot, arms[members[r]].slot = j, r
			var theta float64
			if t.gaussian {
				mu := 1 / (1 + priorB[g]) // the Beta(1, b) prior's mean
				theta = mu + gaussSigma0*math.Sqrt2*math.Erfinv(-2*math.Expm1(lq)-1)
			} else {
				theta = -math.Expm1(lq / priorB[g])
			}
			t.consider(members[j], theta, want)
		}
	}
	for _, i := range t.pulled {
		s := &arms[i]
		if !s.active() {
			continue
		}
		var theta float64
		if t.gaussian {
			m, sd := s.gaussPosterior()
			theta = t.rng.Gaussian(m, sd)
		} else {
			theta = t.rng.Beta(s.beta.S, s.beta.F)
		}
		t.consider(i, theta, want)
	}
}

// consider offers arm i's sample to the round's smallest want.
func (t *thompson) consider(i int, theta float64, want int) {
	if len(t.chosen) < want {
		insertCandidate(&t.chosen, &t.thetas, i, theta)
		return
	}
	if theta < t.thetas[len(t.thetas)-1] {
		t.chosen = t.chosen[:len(t.chosen)-1]
		t.thetas = t.thetas[:len(t.thetas)-1]
		insertCandidate(&t.chosen, &t.thetas, i, theta)
	}
}

// ulb is Algorithm 4: using confidence intervals [s̃' − U, s̃' + U]
// (see radius), prune pairs that are confidently inside the top-kCount
// (they need no more sampling) or confidently outside it.
//
// Counting comparisons against all other pairs needs only two order
// statistics of the bounds, not the bounds sorted. With k = kCount and
// SL, SU the lower and upper bounds sorted ascending, NaN first:
//
//   - at most k−1 other pairs could still beat pair i (#{LB < UB_i} − 1
//     ≤ k − 1, the −1 excluding pair i itself) exactly when k ≥ n or
//     SL[k] ≥ UB_i;
//   - at least k pairs are confidently better than pair i
//     (#{UB < LB_i} ≥ k) exactly when not SU[k−1] ≥ LB_i.
//
// Both follow from #{x < v} ≤ k ⟺ sorted[k] ≥ v. The two order
// statistics come from an O(n) selection, so each pass is O(n) instead
// of the O(n log n) of sorting both bound arrays.
func (a *TMerge) ulb(arms []pairState, pulled []int, drainedAtStart, tau, kCount int) {
	n := len(arms)
	logTau := math.Log(float64(max(tau, 2)))
	if a.ulbCannotPrune(arms, pulled, drainedAtStart, logTau, kCount) {
		return
	}
	// The bound arrays are scratch reused across pruning passes and
	// Select calls (this pass used to allocate them every iteration —
	// the single largest allocation site of the whole pipeline). Every
	// element is written below before any read.
	lbs := sizeScratch(&a.ulbLB, n)
	ubs := sizeScratch(&a.ulbUB, n)
	for i := range arms {
		s := &arms[i]
		u := a.radius(s, logTau)
		if math.IsInf(u, 1) {
			lbs[i] = math.Inf(-1)
			ubs[i] = math.Inf(1)
			continue
		}
		m := s.mean()
		lbs[i] = m - u
		ubs[i] = m + u
	}
	// inBound = SL[k] and outBound = SU[k−1]. Their edge values make the
	// comparisons below degenerate correctly: with k ≥ n every sampled
	// arm is in; with k = 0 every arm not in is out (NaN ≥ x is false).
	inBound, outBound := math.NaN(), math.NaN()
	if kCount < n {
		sel := sizeScratch(&a.ulbSelLB, n)
		copy(sel, lbs)
		inBound = kthFloat(sel, kCount)
	}
	if kCount > 0 {
		sel := sizeScratch(&a.ulbSelUB, n)
		copy(sel, ubs)
		outBound = kthFloat(sel, kCount-1)
	}

	for i := range arms {
		s := &arms[i]
		if !s.active() || s.count == 0 {
			continue
		}
		if kCount >= n || inBound >= ubs[i] {
			s.prunedIn = true
			continue
		}
		if !(outBound >= lbs[i]) {
			s.prunedOut = true
		}
	}
}

// ulbCannotPrune reports, without computing the bounds, that a pruning
// pass would prune no arm — which is most passes early in a window. Let
// F arms have a finite radius and the other n−F an infinite one (bounds
// −Inf and +Inf). When F < k < n−F, at least k+1 lower bounds are −Inf
// or NaN, so SL[k] is −Inf or NaN; and at most k−1 upper bounds sort
// below +Inf, so SU[k−1] is +Inf. An arm is then pruned in only if its
// upper bound is −Inf, and out only if its lower bound is NaN: neither
// happens to an infinite-radius arm, and the finite-radius arms that
// could be pruned are checked one by one (a NaN or infinite distance
// can produce such bounds).
//
// Only pulled arms are visited: an unpulled arm has an infinite radius
// unless its universe was empty at Select start (drainedAtStart), when
// its radius is 0 and it cannot be pruned.
func (a *TMerge) ulbCannotPrune(arms []pairState, pulled []int, drainedAtStart int, logTau float64, kCount int) bool {
	finite := drainedAtStart
	if finite >= kCount {
		return false
	}
	for _, i := range pulled {
		s := &arms[i]
		if a.unbounded(s) {
			continue
		}
		if finite++; finite >= kCount {
			return false
		}
		if s.active() {
			u, m := a.radius(s, logTau), s.mean()
			if m+u == math.Inf(-1) || math.IsNaN(m-u) {
				return false
			}
		}
	}
	return len(arms)-finite > kCount
}

// unbounded reports whether a pair's confidence radius is +Inf: it is
// unsampled or, in variance-aware mode, has too few samples for a
// variance estimate. Drained pairs never are.
func (a *TMerge) unbounded(s *pairState) bool {
	const minSamples = 8
	return !s.sampler.Exhausted() && (s.count == 0 || !a.cfg.ULBHoeffding && s.count < minSamples)
}

// radius returns the confidence radius of a pair's score estimate at
// iteration tau, given logTau = ln(max(tau, 2)). Drained pairs (every
// BBox pair evaluated) have an exact score and radius 0. Unbounded pairs
// have radius +Inf.
func (a *TMerge) radius(s *pairState, logTau float64) float64 {
	if s.sampler.Exhausted() {
		return 0
	}
	if a.unbounded(s) {
		return math.Inf(1)
	}
	if a.cfg.ULBHoeffding {
		// stats.HoeffdingRadius with the logarithm hoisted out of the
		// per-arm loop.
		return math.Sqrt(2 * logTau / float64(s.count))
	}
	// Empirical-Bernstein-style radius: the Hoeffding exponent with the
	// observed standard deviation in place of the worst-case range, plus
	// a 1/n correction guarding small-sample variance underestimates.
	return s.sd*math.Sqrt(2*logTau/float64(s.count)) + 0.5/float64(s.count)
}

// sizeScratch resizes *buf to exactly n elements, growing the backing
// array only when needed, and returns the resized slice. Contents are
// unspecified; callers overwrite every element.
func sizeScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatLess is the order the sort package sorts float64 slices by: NaN
// before every number, otherwise <, so -0 and +0 compare equal.
func floatLess(x, y float64) bool {
	return x < y || (x != x && y == y)
}

// kthFloat returns an element that compares equal (under floatLess) to
// the one sorting x ascending would place at index k, reordering x in
// place. It is an iterative quickselect with median-of-three pivots and
// three-way partitioning, so runs of equal values — the ±Inf bounds of
// arms with too few samples — are settled in one pass instead of
// degrading to quadratic time. It allocates nothing. 0 ≤ k < len(x).
func kthFloat(x []float64, k int) float64 {
	lo, hi := 0, len(x)-1
	for lo < hi {
		p := medianOf3(x[lo], x[lo+(hi-lo)/2], x[hi])
		// Partition x[lo..hi] into < p, == p, > p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := x[i]; {
			case floatLess(v, p):
				x[lt], x[i] = v, x[lt]
				lt++
				i++
			case floatLess(p, v):
				x[gt], x[i] = v, x[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return x[k]
		}
	}
	return x[k]
}

// medianOf3 returns the median of a, b and c under floatLess.
func medianOf3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}

// computeRegret fills diag.AvgRegret: the mean excess of the evaluated
// distances over the smallest estimated track-pair score (§IV-E). The true
// s̃min is unknown; the estimate uses the smallest sample mean among pairs
// with at least one observation.
func (a *TMerge) computeRegret(arms []pairState, tau int) {
	if tau == 0 {
		return
	}
	sMin := math.Inf(1)
	for i := range arms {
		if s := &arms[i]; s.count > 0 && s.mean() < sMin {
			sMin = s.mean()
		}
	}
	if math.IsInf(sMin, 1) {
		return
	}
	a.diag.AvgRegret = a.diag.SumDistances/float64(tau) - sMin
}
