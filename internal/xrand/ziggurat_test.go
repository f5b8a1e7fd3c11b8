package xrand

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// streamHash hashes the bit patterns of the first n draws of seed 1.
func streamHash(n int, draw func(r *RNG) float64) uint64 {
	r := New(1)
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		v := math.Float64bits(draw(r))
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestBoxMullerStreamsPinned pins the first 10⁴ draws of NormFloat64,
// Gaussian and Exp at seed 1, and the State encoding, to the values
// recorded before Gamma moved to the ziggurat. These streams feed the
// synthetic scenes and the ReID models; the ziggurat must never reach
// them.
func TestBoxMullerStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func(r *RNG) float64
		want uint64
	}{
		{"NormFloat64", func(r *RNG) float64 { return r.NormFloat64() }, 0x213460e20e91164f},
		{"Gaussian(3,0.5)", func(r *RNG) float64 { return r.Gaussian(3, 0.5) }, 0xc7e1a9ec3f9787d6},
		{"Exp(2)", func(r *RNG) float64 { return r.Exp(2) }, 0x5b55db30bdc3face},
	} {
		if got := streamHash(10000, c.draw); got != c.want {
			t.Errorf("%s: stream hash %016x, pinned %016x", c.name, got, c.want)
		}
	}
	b, err := json.Marshal(State{S: 7, HasSpare: true, Spare: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"s":7,"has_spare":true,"spare":0.25}`; string(b) != want {
		t.Errorf("State encodes as %s, want %s", b, want)
	}
}

// TestGammaLeavesSpareAlone: Gamma draws no Box–Muller normal, so a
// cached spare survives it and the NormFloat64 stream resumes intact.
func TestGammaLeavesSpareAlone(t *testing.T) {
	r := New(3)
	r.NormFloat64()
	before := r.State()
	if !before.HasSpare {
		t.Fatal("first NormFloat64 cached no spare")
	}
	r.Gamma(2.5)
	if after := r.State(); !after.HasSpare || after.Spare != before.Spare {
		t.Fatalf("Gamma touched the spare: %+v -> %+v", before, after)
	}
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// ksOneSample is the Kolmogorov–Smirnov distance between the sample and
// cdf; it sorts xs.
func ksOneSample(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// ksTwoSample is the two-sample Kolmogorov–Smirnov distance; it sorts
// both samples.
func ksTwoSample(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	i, j, d := 0, 0, 0.0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// ksCrit is the KS critical distance at α = 0.001 for sample sizes n and
// m (one-sample: m = 0).
func ksCrit(n, m int) float64 {
	const c = 1.949 // sqrt(-ln(α/2)/2) at α = 0.001
	if m == 0 {
		return c / math.Sqrt(float64(n))
	}
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

func TestZigNormMoments(t *testing.T) {
	r := New(41)
	const n = 1000000
	var m1, m2, m3, m4 float64
	for i := 0; i < n; i++ {
		x := r.zigNorm()
		m1 += x
		m2 += x * x
		m3 += x * x * x
		m4 += x * x * x * x
	}
	// Each moment within five standard errors of N(0, 1)'s: the
	// variances of x, x², x³ and x⁴ are 1, 2, 15 and 96.
	for _, c := range []struct {
		name      string
		got, want float64
		variance  float64
	}{
		{"mean", m1 / n, 0, 1},
		{"E[x²]", m2 / n, 1, 2},
		{"E[x³]", m3 / n, 0, 15},
		{"E[x⁴]", m4 / n, 3, 96},
	} {
		if tol := 5 * math.Sqrt(c.variance/n); math.Abs(c.got-c.want) > tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.got, c.want, tol)
		}
	}
}

func TestZigNormKS(t *testing.T) {
	r := New(43)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.zigNorm()
	}
	if d, crit := ksOneSample(xs, phi), ksCrit(n, 0); d > crit {
		t.Errorf("KS distance to Φ %v exceeds %v", d, crit)
	}
}

// TestZigNormTail checks the base strip's tail on its own: draws beyond
// zigR must come at the tail's share of all draws, split evenly between
// the signs, and follow the normal conditioned on |x| > zigR.
func TestZigNormTail(t *testing.T) {
	r := New(47)
	const n = 8000000
	var tail []float64
	neg := 0
	for i := 0; i < n; i++ {
		if x := r.zigNorm(); math.Abs(x) > zigR {
			tail = append(tail, math.Abs(x))
			if x < 0 {
				neg++
			}
		}
	}
	pTail := math.Erfc(zigR / math.Sqrt2)
	k := float64(len(tail))
	if sd := math.Sqrt(n * pTail * (1 - pTail)); math.Abs(k-n*pTail) > 5*sd {
		t.Fatalf("%v tail draws of %d, want %v ± %v", k, n, n*pTail, 5*sd)
	}
	if sd := math.Sqrt(k) / 2; math.Abs(float64(neg)-k/2) > 5*sd {
		t.Errorf("%d of %v tail draws negative", neg, k)
	}
	cdf := func(x float64) float64 { return 1 - math.Erfc(x/math.Sqrt2)/pTail }
	if d, crit := ksOneSample(tail, cdf), ksCrit(len(tail), 0); d > crit {
		t.Errorf("tail KS distance %v exceeds %v", d, crit)
	}
}

// gammaBoxMuller is Gamma as it was before the ziggurat: the same
// Marsaglia–Tsang loop driven by the polar Box–Muller NormFloat64. It is
// the reference the ziggurat-driven Gamma is tested against.
func gammaBoxMuller(r *RNG, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gammaBoxMuller(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
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

// betaBoxMuller is the reference Beta over gammaBoxMuller.
func betaBoxMuller(r *RNG, a, b float64) float64 {
	x := gammaBoxMuller(r, a)
	y := gammaBoxMuller(r, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// TestBetaMatchesBoxMullerReference compares Beta with the Box–Muller
// reference by a two-sample KS test at fixed seeds, over the shapes the
// Thompson draws see: the Beta(1, 2) and Beta(1, 1) priors, mid-run
// posteriors, posteriors in the hundreds, and shapes below 1 (the
// boost path).
func TestBetaMatchesBoxMullerReference(t *testing.T) {
	const n = 20000
	for k, sh := range [][2]float64{
		{1, 2}, {1, 1}, {2.5, 7.5}, {12, 30}, {150, 420}, {600, 90}, {0.5, 0.7}, {0.3, 5},
	} {
		a, b := sh[0], sh[1]
		zig, ref := New(uint64(100+k)), New(uint64(200+k))
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = zig.Beta(a, b)
			ys[i] = betaBoxMuller(ref, a, b)
		}
		if d, crit := ksTwoSample(xs, ys), ksCrit(n, n); d > crit {
			t.Errorf("Beta(%v, %v): two-sample KS distance %v exceeds %v", a, b, d, crit)
		}
	}
}

// TestGammaMatchesBoxMullerReference does the same for Gamma alone,
// including the boost path below shape 1.
func TestGammaMatchesBoxMullerReference(t *testing.T) {
	const n = 20000
	for k, shape := range []float64{0.2, 0.7, 1, 3, 40, 400} {
		zig, ref := New(uint64(300+k)), New(uint64(400+k))
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = zig.Gamma(shape)
			ys[i] = gammaBoxMuller(ref, shape)
		}
		if d, crit := ksTwoSample(xs, ys), ksCrit(n, n); d > crit {
			t.Errorf("Gamma(%v): two-sample KS distance %v exceeds %v", shape, d, crit)
		}
	}
}
