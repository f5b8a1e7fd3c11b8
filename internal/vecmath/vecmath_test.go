package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	dst := NewVec(3)
	if got := Add(dst, v, w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(dst, v, w); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(dst, 2, v); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	copy(dst, v)
	if got := AXPY(dst, 10, w); got[0] != 41 || got[1] != 52 || got[2] != 63 {
		t.Errorf("AXPY = %v", got)
	}
	if got := Dot(v, w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := Norm2(Vec{3, 4}); !almostEq(got, 5) {
		t.Errorf("Norm2 = %v", got)
	}
	if got := Dist2(Vec{0, 0}, Vec{3, 4}); !almostEq(got, 5) {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestClone(t *testing.T) {
	v := Vec{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestNormalize(t *testing.T) {
	v := Vec{3, 4}
	Normalize(v)
	if !almostEq(Norm2(v), 1) {
		t.Errorf("normalized norm = %v", Norm2(v))
	}
	z := Vec{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector must stay zero")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestMat(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)
	if m.At(1, 2) != 6 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[0] != 4 || row[1] != 5 || row[2] != 6 {
		t.Errorf("Row = %v", row)
	}
	dst := NewVec(2)
	m.MulVec(dst, Vec{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestNewMatPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMat(0, 3)
}

func TestTanh(t *testing.T) {
	v := Vec{0, 1000, -1000}
	Tanh(v)
	if v[0] != 0 || !almostEq(v[1], 1) || !almostEq(v[2], -1) {
		t.Errorf("Tanh = %v", v)
	}
}

// Property: triangle inequality for Dist2.
func TestDist2TriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		va, vb, vc := Vec(a[:]), Vec(b[:]), Vec(c[:])
		for _, x := range append(append(append([]float64{}, a[:]...), b[:]...), c[:]...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip degenerate inputs
			}
		}
		return Dist2(va, vc) <= Dist2(va, vb)+Dist2(vb, vc)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and Norm2(v)^2 == Dot(v, v).
func TestDotProperties(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for _, x := range append(append([]float64{}, a[:]...), b[:]...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		va, vb := Vec(a[:]), Vec(b[:])
		if Dot(va, vb) != Dot(vb, va) {
			return false
		}
		n := Norm2(va)
		return almostEqRel(n*n, Dot(va, va))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almostEqRel(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*m
}

// AXPY stores dst + s*v into dst and returns dst.
func AXPY(dst Vec, s float64, v Vec) Vec {
	checkLen(len(dst), len(v))
	for i := range v {
		dst[i] += s * v[i]
	}
	return dst
}

// Sub stores v - w into dst and returns dst.
func Sub(dst, v, w Vec) Vec {
	checkLen(len(dst), len(v))
	checkLen(len(v), len(w))
	for i := range v {
		dst[i] = v[i] - w[i]
	}
	return dst
}
