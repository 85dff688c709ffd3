// Package dd implements the ten elementary functions in double-double
// arithmetic with relative error below RelErrBound. It is the computational
// core of the "accurate double library" comparators (the Intel-libm and
// CR-LIBM substitutes) and the first step of the correctly rounding oracle
// (internal/oracle): fast enough to benchmark against, accurate enough for
// a Ziv first step whose slow path almost never triggers.
//
// The argument reductions mirror internal/reduction's schemes, but carry
// the low-order word of every step and use double-double tables computed
// from the arbitrary-precision oracle at init.
package dd

import (
	"math"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// RelErrBound bounds the relative error of Eval for every finite input
// whose result magnitude lies in [MinResult, MaxResult]; the oracle's
// double-double first step widens each value by it.
//
// The kernels carry every argument-reduction step and table entry as a
// double-double, so those contribute O(2^-90) (the reduction constants'
// split errors times |N| < 2^17). What remains is the polynomial tails
// evaluated in plain double: each tail is at most 2^-7 of the result (|t|
// ≤ ln2/128 for the exp family, |u| ≤ 1/384 for the logs with no
// cancellation against the recentered log(F) table, |θ| ≤ π/128 for
// sinπ/cosπ after the exact fold, |x| < 1/8 for the small sinh/cosh
// series) and carries a few double roundings, below 2^-58 of the result.
// sinh above 1/8 subtracts e^-x from e^x, which amplifies their ~2^-63
// errors at most 8×. Every kernel is therefore accurate to about 2^-57.
// TestKernelAccuracy sweeps every bfloat16 input plus random tensorfloat32
// and wide-range inputs against a 200-bit reference (worst measured: about
// 2^-60) and asserts the worst error stays below 2^-58, tighter than
// RelErrBound/8, so the bound keeps more than 3 bits of margin over every
// measured error.
const RelErrBound = 0x1p-50

// MinResult and MaxResult bound the result magnitudes RelErrBound covers.
// Below MinResult the low word may lose bits to gradual underflow; above
// MaxResult lie the saturated overflow proxies.
const (
	MinResult = 0x1p-900
	MaxResult = 0x1p900
)

// DD is an unevaluated sum Hi + Lo with |Lo| ≤ ulp(Hi)/2.
type DD struct {
	Hi, Lo float64
}

// Value collapses the pair to the nearest double (preserving the sign of
// zero, which the IEEE addition -0 + 0 = +0 would lose).
func (d DD) Value() float64 {
	if d.Lo == 0 {
		return d.Hi
	}
	return d.Hi + d.Lo
}

// twoSum returns (s, e) with s = rn(a+b) and a+b = s+e exactly.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// fastTwoSum is twoSum under the precondition |a| ≥ |b| (or a == 0).
func fastTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// twoProd returns (p, e) with p = rn(a·b) and a·b = p+e exactly (FMA).
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// mulDDFloat multiplies a DD by a double.
func mulDDFloat(d DD, f float64) DD {
	p, e := twoProd(d.Hi, f)
	e = math.FMA(d.Lo, f, e)
	hi, lo := fastTwoSum(p, e)
	return DD{hi, lo}
}

// addDD adds two DDs (Dekker/Knuth style, error O(2^-105)).
func addDD(a, b DD) DD {
	s, e := twoSum(a.Hi, b.Hi)
	e += a.Lo + b.Lo
	hi, lo := fastTwoSum(s, e)
	return DD{hi, lo}
}

// mulDD multiplies two DDs.
func mulDD(a, b DD) DD {
	p, e := twoProd(a.Hi, b.Hi)
	e += a.Hi*b.Lo + a.Lo*b.Hi
	hi, lo := fastTwoSum(p, e)
	return DD{hi, lo}
}

// Round rounds the exact value that d approximates into out under mode
// when every value within relErr·|Hi| of d rounds to the same result —
// the Ziv first-step test. Rounding is monotone in every mode, so the two
// ends of the envelope agreeing decides the rounding of any value strictly
// inside it. It reports false when the envelope straddles a rounding
// boundary. Hi must be finite and nonzero and relErr at most 1/8.
func (d DD) Round(out fp.Format, mode fp.Mode, relErr float64) (uint64, bool) {
	eps := math.Abs(d.Hi) * relErr
	lo := out.FromSum(d.Hi, d.Lo-eps, mode)
	if hi := out.FromSum(d.Hi, d.Lo+eps, mode); lo != hi {
		return 0, false
	}
	return lo, true
}

// scale multiplies by 2^k exactly.
func (d DD) scale(k int) DD {
	return DD{math.Ldexp(d.Hi, k), math.Ldexp(d.Lo, k)}
}

// Eval computes fn(x) as a DD with relative error below ~2^-60 for regular
// inputs; special inputs (NaN, infinities, out-of-double-range results,
// exact zeros) produce the conventional double special values in Hi.
func Eval(fn bigmath.Func, x float64) DD {
	tablesOnce.Do(initTables)
	if math.IsNaN(x) {
		return DD{Hi: math.NaN()}
	}
	switch fn {
	case bigmath.Exp:
		return expFamily(x, expBase)
	case bigmath.Exp2:
		return expFamily(x, exp2Base)
	case bigmath.Exp10:
		return expFamily(x, exp10Base)
	case bigmath.Ln:
		return logFamily(x, lnBase)
	case bigmath.Log2:
		return logFamily(x, log2Base)
	case bigmath.Log10:
		return logFamily(x, log10Base)
	case bigmath.Sinh:
		return sinhCosh(x, true)
	case bigmath.Cosh:
		return sinhCosh(x, false)
	case bigmath.SinPi:
		return sinCosPi(x, true)
	case bigmath.CosPi:
		return sinCosPi(x, false)
	}
	//lint:ignore barepanic exhaustive Func switch; a new function is a compile-time change.
	panic("dd: bad func")
}
