package xrand

import (
	"fmt"
	"testing"
)

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

// BenchmarkBeta keeps its Beta(2.5, 7.5) draw so its numbers compare
// across revisions; BenchmarkBetaShapes covers the posterior range.
func BenchmarkBeta(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Beta(2.5, 7.5)
	}
}

// posteriorShapes are Thompson-draw shapes from a fresh Beta(1, 2)
// BetaInit prior to a pair sampled a few hundred times.
var posteriorShapes = []struct {
	name string
	a, b float64
}{
	{"small", 1, 2},
	{"mid", 12, 30},
	{"large", 150, 420},
}

func BenchmarkBetaShapes(b *testing.B) {
	for _, sh := range posteriorShapes {
		b.Run(sh.name, func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				r.Beta(sh.a, sh.b)
			}
		})
	}
}

func BenchmarkGamma(b *testing.B) {
	for _, shape := range []float64{0.5, 1, 12, 150} {
		b.Run(fmt.Sprintf("shape=%g", shape), func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				r.Gamma(shape)
			}
		})
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.NormFloat64()
	}
}
