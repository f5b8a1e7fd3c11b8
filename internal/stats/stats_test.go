package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tmerge/tmerge/internal/xrand"
)

func TestBetaMeanAndObserve(t *testing.T) {
	b := NewBeta(1, 1)
	if b.Mean() != 0.5 {
		t.Errorf("uniform prior mean = %v", b.Mean())
	}
	b = b.Observe(true)
	if b.S != 2 || b.F != 1 {
		t.Errorf("after success: %+v", b)
	}
	b = b.Observe(false).Observe(false)
	if b.S != 2 || b.F != 3 {
		t.Errorf("after failures: %+v", b)
	}
	if got := b.Mean(); got != 0.4 {
		t.Errorf("mean = %v, want 0.4", got)
	}
	if got := b.Count(); got != 3 {
		t.Errorf("count = %v, want 3", got)
	}
}

func TestNewBetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive shape")
		}
	}()
	NewBeta(0, 1)
}

func TestHoeffdingRadius(t *testing.T) {
	if !math.IsInf(HoeffdingRadius(10, 0), 1) {
		t.Error("n=0 must give +Inf radius")
	}
	r1 := HoeffdingRadius(100, 10)
	r2 := HoeffdingRadius(100, 40)
	if r2 >= r1 {
		t.Error("radius must shrink with more samples")
	}
	// U = sqrt(2 ln tau / n)
	want := math.Sqrt(2 * math.Log(100) / 10)
	if math.Abs(r1-want) > 1e-12 {
		t.Errorf("radius = %v, want %v", r1, want)
	}
	// Small tau is clamped so the radius stays positive.
	if HoeffdingRadius(1, 5) <= 0 {
		t.Error("radius must be positive for tau=1")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive corr = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative corr = %v", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("zero-variance corr = %v", got)
	}
	if got := Pearson(nil, nil); got != 0 {
		t.Errorf("empty corr = %v", got)
	}
}

func TestPearsonIndependent(t *testing.T) {
	r := xrand.New(5)
	n := 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	if got := Pearson(x, y); math.Abs(got) > 0.03 {
		t.Errorf("independent corr = %v", got)
	}
}

func TestPearsonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("std = %v, want 2", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Error("empty summary must be zero-valued")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between elements.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated quantile = %v", got)
	}
	// Input is not modified.
	shuffled := []float64{5, 1, 3}
	Quantile(shuffled, 0.5)
	if shuffled[0] != 5 {
		t.Error("Quantile must not mutate input")
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 1},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v", c.in, got)
		}
	}
}

// Property: Welford summary matches the naive two-pass computation.
func TestSummaryMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var s Summary
		var sum float64
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		wantVar := m2 / float64(len(xs))
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Var()-wantVar) < 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is bounded in [-1, 1] and symmetric.
func TestPearsonProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + int(seed%40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = 0.3*x[i] + r.NormFloat64()
		}
		p := Pearson(x, y)
		return p >= -1-1e-12 && p <= 1+1e-12 && math.Abs(p-Pearson(y, x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
