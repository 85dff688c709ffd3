package reduction

import "math"

// Ctx carries the per-input reduction state from Reduce to Compensate. Its
// interpretation is scheme-specific; it is a plain value so the hot paths
// allocate nothing.
type Ctx struct {
	// R is the reduced polynomial input.
	R float64
	// A and B are the affine kernel multipliers of two-polynomial schemes.
	A, B float64
	// T is the additive term (log family) or the 2^(j/64) factor
	// (exponential family).
	T float64
	// E is the binary scaling exponent q of the exponential family.
	E int
	// Sign is the final sign multiplier of two-polynomial schemes.
	Sign float64
}

// saturate returns the overflow proxy with the sign of x.
func saturate(x float64) float64 {
	return math.Copysign(math.MaxFloat64, x)
}
