// Package baseline implements the comparator math libraries of the paper's
// evaluation (§4 Methodology) as behavioural substitutes for the
// closed/unlinkable originals:
//
//   - MathLibm — "glibc's double libm": fast, within ~1 ulp of its working
//     precision but not correctly rounded;
//   - DDLibm — "Intel's double libm": double-double evaluation, correctly
//     rounded to its working precision under round-to-nearest only, and
//     slightly slower;
//   - CRLibm — "CR-LIBM": a Ziv two-step implementation, correctly rounded
//     in its working precision for four rounding modes (no ties-to-away),
//     with an arbitrary-precision slow path.
//
// All three produce a value in a working format and re-round it to the
// requested target — the re-purposing pattern whose double-rounding hazard
// motivates RLibm-All/RLIBM-Prog.
//
// Working precision scaling: the paper's comparators compute in binary64
// (53 bits) and serve a 24-bit float — 29 bits of headroom. Reproducing
// their Table 2 failure pattern at this project's default largest format
// F22,8 requires comparable headroom, so the default working format is
// ScaledDouble = F(49,10) (47-bit precision). With
// Working set to a wider format the comparators converge to raw double
// behaviour. See DESIGN.md §3.
package baseline

import (
	"math"

	"repro/internal/bigmath"
	"repro/internal/dd"
	"repro/internal/fp"
)

// ScaledDouble is the comparators' default working format: the "double
// precision of the scaled-down world" (see the package comment).
var ScaledDouble = fp.MustFormat(49, 10)

// MathLibm is the "glibc double libm" substitute: Go's math package,
// truncated into the working format (a fast library whose results are
// within one working-ulp but not correctly rounded).
type MathLibm struct {
	Fn      bigmath.Func
	Working fp.Format // zero value → ScaledDouble
}

func (m MathLibm) working() fp.Format {
	if m.Working.Bits() == 0 {
		return ScaledDouble
	}
	return m.Working
}

// Value returns the library's working-precision result as a double.
func (m MathLibm) Value(x float64) float64 {
	w := m.working()
	return w.Decode(w.FromFloat64(m.Fn.Float64(x), fp.RoundTowardZero))
}

// Bits re-rounds the working-precision result into out under mode.
func (m MathLibm) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return out.FromFloat64(m.Value(x), mode)
}

// DDLibm is the "Intel double libm" substitute: double-double kernels
// rounded to nearest into the working format — essentially correctly
// rounded there under rn, and slower than MathLibm.
type DDLibm struct {
	Fn      bigmath.Func
	Working fp.Format
}

func (d DDLibm) working() fp.Format {
	if d.Working.Bits() == 0 {
		return ScaledDouble
	}
	return d.Working
}

// Value returns the working-precision result as a double.
func (d DDLibm) Value(x float64) float64 {
	w := d.working()
	v := dd.Eval(d.Fn, x)
	return w.Decode(w.FromFloat64(v.Value(), fp.RoundNearestEven))
}

// Bits re-rounds the working-precision result into out under mode.
func (d DDLibm) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return out.FromFloat64(d.Value(x), mode)
}

// CRLibm is the "CR-LIBM" substitute: correctly rounded into its working
// format under rn/rz/ru/rd (CR-LIBM has no ties-to-away implementation),
// via a double-double first step and an arbitrary-precision second step.
type CRLibm struct {
	Fn      bigmath.Func
	Working fp.Format
}

func (c CRLibm) working() fp.Format {
	if c.Working.Bits() == 0 {
		return ScaledDouble
	}
	return c.Working
}

// SupportsMode reports whether the mode is implemented.
func (c CRLibm) SupportsMode(m fp.Mode) bool { return m != fp.RoundNearestAway }

// Value returns the correctly rounded working-precision result as a double.
func (c CRLibm) Value(x float64, mode fp.Mode) float64 {
	w := c.working()
	v := dd.Eval(c.Fn, x)
	if math.IsNaN(v.Hi) || math.IsInf(v.Hi, 0) || v.Hi == 0 {
		return w.Decode(w.FromFloat64(v.Hi, mode))
	}
	// Subnormal-adjacent working results lose the dd error structure:
	// straight to the slow path. Elsewhere the first step trusts the
	// kernels' 2^-58 design bound, tighter than the oracle's, as CR-LIBM's
	// own first step does.
	if math.Abs(v.Hi) > math.Ldexp(1, -960) {
		if bits, ok := v.Round(w, mode, 0x1p-58); ok {
			return w.Decode(bits)
		}
	}
	return w.Decode(bigmath.CorrectlyRounded(c.Fn, x, w, mode))
}

// Bits re-rounds the correctly rounded working-precision result into out —
// correct for the working format itself, but exposed to double rounding on
// narrower targets exactly like re-purposed CR-LIBM.
func (c CRLibm) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return out.FromFloat64(c.Value(x, mode), mode)
}
