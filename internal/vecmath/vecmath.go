// Package vecmath provides dense float64 vector and matrix operations used
// by the simulated ReID model and the appearance machinery of the trackers.
// The operations are deliberately simple and allocation-conscious: the ReID
// oracle is on the hot path of every algorithm in this repository.
package vecmath

import (
	"fmt"
	"math"
	"sync"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add stores v + w into dst and returns dst. dst may alias v or w. All three
// must have the same length.
func Add(dst, v, w Vec) Vec {
	checkLen(len(dst), len(v))
	checkLen(len(v), len(w))
	for i := range v {
		dst[i] = v[i] + w[i]
	}
	return dst
}

// Scale stores s*v into dst and returns dst.
func Scale(dst Vec, s float64, v Vec) Vec {
	checkLen(len(dst), len(v))
	for i := range v {
		dst[i] = s * v[i]
	}
	return dst
}

// Dot returns the inner product of v and w.
func Dot(v, w Vec) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist2 returns the Euclidean distance between v and w without allocating.
func Dist2(v, w Vec) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit L2 norm and returns v. The zero vector
// is left unchanged.
func Normalize(v Vec) Vec {
	n := Norm2(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// VecPool is a concurrency-safe free list of fixed-length vectors — the
// reusable scratch buffers of the hot loops (the ReID MLP's hidden
// activations, distance workspaces). Get hands out a vector of the
// pool's length with unspecified contents; callers that fully overwrite
// it (MulVec writes every element) need no clearing. Put recycles a
// vector for a later Get; the caller must not retain it afterwards. A
// vector that escapes into long-lived state (a cache entry, a feature
// store) must simply never be Put back — the pool imposes no tracking.
type VecPool struct {
	n int
	p sync.Pool
}

// NewVecPool returns a pool of length-n vectors.
func NewVecPool(n int) *VecPool {
	if n <= 0 {
		panic(fmt.Sprintf("vecmath: invalid pool vector length %d", n))
	}
	vp := &VecPool{n: n}
	vp.p.New = func() any {
		v := NewVec(n)
		// Pool a pointer to the slice header so Put/Get cycles do not
		// themselves allocate (a bare slice would be boxed on every Put).
		return &v
	}
	return vp
}

// Len returns the length of the pool's vectors.
func (vp *VecPool) Len() int { return vp.n }

// Get returns a pointer to a length-Len vector with unspecified
// contents. Dereference for the working slice and hand the same pointer
// back to Put — the pointer round-trip is what keeps a Get/Put cycle
// allocation-free.
func (vp *VecPool) Get() *Vec { return vp.p.Get().(*Vec) }

// Put recycles a vector obtained from Get. Putting a foreign-length
// vector panics: silently accepting it would hand a wrong-sized buffer
// to a later Get.
func (vp *VecPool) Put(v *Vec) {
	if len(*v) != vp.n {
		panic(fmt.Sprintf("vecmath: Put of length-%d vector into length-%d pool", len(*v), vp.n))
	}
	vp.p.Put(v)
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat returns a zero matrix with the given dimensions.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("vecmath: invalid matrix dims %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of the i-th row.
func (m *Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MulVec stores m * v into dst and returns dst. dst must have length
// m.Rows and must not alias v.
func (m *Mat) MulVec(dst, v Vec) Vec {
	checkLen(len(v), m.Cols)
	checkLen(len(dst), m.Rows)
	// Four rows share each pass over v. Each row's sum still runs left
	// to right, so every element is bit-identical to a row-at-a-time
	// product.
	n := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*n : (i+1)*n]
		r1 := m.Data[(i+1)*n : (i+2)*n]
		r2 := m.Data[(i+2)*n : (i+3)*n]
		r3 := m.Data[(i+3)*n : (i+4)*n]
		r0, r1, r2, r3 = r0[:len(v)], r1[:len(v)], r2[:len(v)], r3[:len(v)]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*n : (i+1)*n]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
	return dst
}

// Tanh applies the element-wise hyperbolic tangent to v in place and
// returns v. It is the activation function of the simulated ReID MLP.
func Tanh(v Vec) Vec {
	for i, x := range v {
		v[i] = math.Tanh(x)
	}
	return v
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vecmath: length mismatch %d != %d", a, b))
	}
}
