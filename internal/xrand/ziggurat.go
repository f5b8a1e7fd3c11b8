package xrand

import "math"

// The ziggurat normal (Marsaglia & Tsang, "The Ziggurat Method for
// Generating Random Variables", JSS 2000) covers the half-normal density
// f(x) = exp(-x²/2) with 128 layers of equal area zigV. Layer 0 is the
// base: the rectangle [0, zigR] × [0, f(zigR)] plus the tail beyond
// zigR. Layer i ≥ 1 is the rectangle [0, x_i] × [f(x_i), f(x_{i-1})],
// with x_0 = 0 < x_1 < … < x_127 = zigR; its part left of x_{i-1} lies
// wholly under the curve.
const (
	zigLayers = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
	// zigScale is the range of the 53-bit magnitude a draw carries.
	zigScale = 1 << 53
)

var (
	// zigK[i] is the magnitude below which a point of layer i lies in
	// its inner rectangle and is accepted at once.
	zigK [zigLayers]uint64
	// zigW[i] maps a magnitude to x in layer i.
	zigW [zigLayers]float64
	// zigF[i] is f(x_i); zigF[0] = f(x_0) = 1.
	zigF [zigLayers]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	// The base's rectangle-equivalent width: its area zigV over f(zigR).
	q := zigV / f(zigR)
	zigK[0] = uint64(zigR / q * zigScale)
	zigW[0] = q / zigScale
	zigF[0] = 1
	zigW[zigLayers-1] = zigR / zigScale
	zigF[zigLayers-1] = f(zigR)
	x := zigR
	for i := zigLayers - 2; i >= 1; i-- {
		// x_i solves x_{i+1}·(f(x_i) − f(x_{i+1})) = zigV.
		next := math.Sqrt(-2 * math.Log(zigV/x+f(x)))
		zigK[i+1] = uint64(next / x * zigScale)
		x = next
		zigW[i] = x / zigScale
		zigF[i] = f(x)
	}
	zigK[1] = 0 // x_0 = 0: the top layer has no inner rectangle
}

// zigNorm returns a standard normal deviate from the ziggurat. One
// Uint64 supplies the layer (bits 0–6), the sign (bit 7) and a 53-bit
// magnitude (bits 11–63); about 99% of draws return after one compare
// and one multiply. Only the tail, under 0.1% of draws, takes a log.
func (r *RNG) zigNorm() float64 {
	for {
		u := r.Uint64()
		i := u & (zigLayers - 1)
		j := u >> 11
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return withSign(x, u)
		}
		if i == 0 {
			// Beyond zigR: Marsaglia's exponential-rejection tail.
			for {
				t := -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= t*t {
					return withSign(zigR+t, u)
				}
			}
		}
		// The wedge between the inner rectangle and the curve.
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return withSign(x, u)
		}
	}
}

// withSign negates x ≥ 0 when bit 7 of u is set, without a branch.
func withSign(x float64, u uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | (u&0x80)<<56)
}
