// Package stats provides the statistical machinery used by the TMerge
// bandit and the experiment harness: Beta posteriors, Hoeffding confidence
// bounds, Pearson correlation, running (Welford) summaries, and quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Beta represents a Beta(S, F) distribution used as the conjugate prior of
// the per-track-pair Bernoulli reward process in TMerge. Following the
// paper's notation, S counts "r = 1" observations (large distances) and F
// counts "r = 0" observations (small distances), so a *lower* mean marks a
// more promising (more similar) track pair.
type Beta struct {
	S, F float64
}

// NewBeta returns a Beta prior with the given shape parameters. Both must
// be positive.
func NewBeta(s, f float64) Beta {
	if s <= 0 || f <= 0 {
		panic(fmt.Sprintf("stats: Beta shapes must be positive, got (%g, %g)", s, f))
	}
	return Beta{S: s, F: f}
}

// Mean returns S / (S + F).
func (b Beta) Mean() float64 { return b.S / (b.S + b.F) }

// Observe returns the posterior after a Bernoulli observation r.
func (b Beta) Observe(r bool) Beta {
	if r {
		return Beta{S: b.S + 1, F: b.F}
	}
	return Beta{S: b.S, F: b.F + 1}
}

// ObserveWeighted returns the posterior after a fractional observation
// r ∈ [0, 1] counted with weight w pseudo-observations: S grows by w·r
// and F by w·(1-r). With w = 1 it is the bounded-reward Thompson sampling
// update of Agrawal & Goyal — the Bernoulli trial the paper performs is
// its randomised version with identical expectation and strictly higher
// variance. w > 1 tempers the posterior toward exploitation. r is clamped
// to [0, 1]; w must be positive.
func (b Beta) ObserveWeighted(r, w float64) Beta {
	if w <= 0 {
		panic(fmt.Sprintf("stats: non-positive observation weight %g", w))
	}
	r = Clamp01(r)
	return Beta{S: b.S + w*r, F: b.F + w*(1-r)}
}

// Count returns the number of observations folded into the posterior beyond
// the (1,1) uniform prior. It may be negative for sub-uniform priors.
func (b Beta) Count() float64 { return b.S + b.F - 2 }

// HoeffdingRadius returns the confidence radius U = sqrt(2 ln(tau) / n)
// used by the ULB pruning rule (Algorithm 4) and by the LCB baseline. For
// n == 0 the radius is +Inf (the estimate is unbounded).
func HoeffdingRadius(tau, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	if tau < 2 {
		tau = 2
	}
	return math.Sqrt(2 * math.Log(float64(tau)) / float64(n))
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either series has zero variance. It panics when the
// series lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d != %d", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Summary is a numerically stable running mean/variance accumulator
// (Welford's algorithm) that also tracks min and max.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the (population) variance.
func (s *Summary) Var() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation. xs is not modified. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Clamp01 clamps x to the unit interval.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
