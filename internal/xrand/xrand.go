// Package xrand provides deterministic, splittable pseudo-random number
// generation for the simulator and the sampling algorithms.
//
// Every stochastic component in this repository draws from an *xrand.RNG
// created from an explicit seed, so dataset generation, tracking, and the
// bandit algorithms are exactly reproducible. Streams can be split
// (derived) by label so that adding randomness in one module does not
// perturb another — a property the experiment harness relies on when
// comparing algorithms on identical inputs.
//
// One uniform source (SplitMix64, Uint64) feeds everything; the normal
// deviates come from one of two paths, fixed per caller class:
//
//   - NormFloat64 and Gaussian use the polar Box–Muller method with a
//     cached spare. They feed the synthetic scenes (synth), the ReID
//     models (reid) and TMerge's Gaussian-posterior variant, and their
//     streams are pinned: changing them would change every dataset.
//   - Gamma, and through it Beta, draws its normals from a 128-layer
//     ziggurat (Marsaglia & Tsang 2000) that needs no logarithm on its
//     fast path. It feeds TMerge's Thompson draws for pairs that have
//     been pulled, whose acceptance rests on the paper's claims
//     reproducing (benchrunner -exp claims), not on bit-identical
//     streams.
//
// Exp inverts a uniform. TMerge's never-pulled pairs draw through it,
// not through Beta: one exponential (a uniform's logarithm) and one
// Intn per order statistic of each prior group and round.
package xrand

import (
	"math"
)

// RNG is a deterministic pseudo-random generator. The core generator is
// SplitMix64, which has a full 2^64 period per stream and cheap splitting.
// RNG is not safe for concurrent use; derive one stream per goroutine.
type RNG struct {
	state uint64
	// cached second normal from Box-Muller
	hasSpare bool
	spare    float64
}

// New returns an RNG seeded from seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State is a serialisable snapshot of an RNG's full internal state — the
// SplitMix64 counter plus the cached Box-Muller spare. Restoring it with
// SetState resumes the stream bit-identically, which the checkpoint layer
// relies on for deterministic replay of interrupted ingestion sessions.
type State struct {
	S        uint64  `json:"s"`
	HasSpare bool    `json:"has_spare,omitempty"`
	Spare    float64 `json:"spare,omitempty"`
}

// State returns a snapshot of the generator's state.
func (r *RNG) State() State {
	return State{S: r.state, HasSpare: r.hasSpare, Spare: r.spare}
}

// SetState overwrites the generator's state with a snapshot taken by
// State. The next draws continue exactly where the snapshotted stream
// left off.
func (r *RNG) SetState(st State) {
	r.state = st.S
	r.hasSpare = st.HasSpare
	r.spare = st.Spare
}

// golden gamma increment of SplitMix64.
const gamma = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a child stream seeded from r's next value, so it
// consumes one value of r and depends on how far r has been drawn. Use
// Derive or DeriveN for a child that depends only on a seed and a label.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Derive returns a child RNG deterministically derived from seed and label,
// independent of any consumption. Use it to give each module / object its
// own stable stream.
func Derive(seed uint64, label string) *RNG {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	// One mixing round so short labels don't correlate.
	h = (h ^ (h >> 33)) * 0xff51afd7ed558ccd
	h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53
	return New(h ^ (h >> 33))
}

// DeriveN is Derive with an integer discriminator, used for per-object and
// per-window streams.
func DeriveN(seed uint64, label string, n int) *RNG {
	child := Derive(seed, label)
	return New(child.Uint64() + uint64(n)*gamma)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Bernoulli performs a Bernoulli trial with success probability p and
// returns true with probability p. Values outside [0,1] are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal deviate via Box-Muller, cached in
// pairs for speed.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Gaussian returns a normal deviate with the given mean and stddev.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Exp returns an exponential deviate with the given rate (lambda > 0).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard u == 0 (Log(0) = -Inf).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Gamma returns a Gamma(shape, 1) deviate using the Marsaglia–Tsang
// method, driven by the ziggurat normal. shape must be > 0; shapes below
// 1 are boosted through Gamma(shape+1).
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.zigNorm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) deviate. a and b must be > 0.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
