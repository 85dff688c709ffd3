package reduction

import (
	"math"
	"math/big"

	"repro/internal/bigmath"
	"repro/internal/poly"
)

// loweredKind tags the scheme family inside a Lowered.
type loweredKind uint8

const (
	loweredLog loweredKind = iota
	loweredExp
	loweredSinhCosh
	loweredSinCosPi
)

// Lowered is the range-reduction/output-compensation scheme of one
// elementary function, and the only handle on it. Reduce, Compensate and
// Special are the production code: the compiled evaluator of internal/gen
// (which verify certifies and libm and the server run) executes them
// verbatim, and the generator replays them bit-for-bit when building
// constraints. Every method dispatches through a small tag switch over the
// statically known family types, so each call is direct (inlinable) with
// no interface table lookup per input. Structure, ReducedDomain and
// Kernels are the generator's half.
type Lowered struct {
	kind loweredKind
	fn   bigmath.Func
}

// Lower returns the scheme of f.
func Lower(f bigmath.Func) Lowered {
	switch f {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		return Lowered{kind: loweredLog, fn: f}
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		return Lowered{kind: loweredExp, fn: f}
	case bigmath.Sinh, bigmath.Cosh:
		return Lowered{kind: loweredSinhCosh, fn: f}
	case bigmath.SinPi, bigmath.CosPi:
		return Lowered{kind: loweredSinCosPi, fn: f}
	}
	//lint:ignore barepanic exhaustive Func switch; a new function is a compile-time change.
	panic("reduction: unknown function")
}

// Func identifies the elementary function.
func (l Lowered) Func() bigmath.Func { return l.fn }

// NumPolys is 1, or 2 for the sinh/cosh and sinpi/cospi families.
func (l Lowered) NumPolys() int {
	if l.kind >= loweredSinhCosh {
		return 2
	}
	return 1
}

// Structure returns the monomial layout of polynomial p: dense for the
// single-polynomial families, an even y0 and an odd y1 kernel otherwise.
func (l Lowered) Structure(p int) poly.Structure {
	switch {
	case l.NumPolys() == 1:
		return poly.Dense
	case p == 0:
		return poly.Even
	default:
		return poly.Odd
	}
}

// ReducedDomain bounds the reduced inputs produced by Reduce.
func (l Lowered) ReducedDomain() (lo, hi float64) {
	switch l.kind {
	case loweredLog:
		return 0, 1.0 / 128
	case loweredExp:
		return expScheme{l.fn}.ReducedDomain()
	case loweredSinhCosh:
		c := ln2Double / 64
		return -c / 2 * 1.01, c / 2 * 1.01
	default:
		return -1.0 / 128, 1.0 / 128
	}
}

// Reduce maps an input to its reduction state, or reports false when the
// input must take the special path.
//
//evalhot:loop
func (l Lowered) Reduce(x float64) (Ctx, bool) {
	switch l.kind {
	case loweredLog:
		return logScheme{l.fn}.Reduce(x)
	case loweredExp:
		return expScheme{l.fn}.Reduce(x)
	case loweredSinhCosh:
		return sinhCoshScheme{l.fn}.Reduce(x)
	default:
		return sinCosPiScheme{l.fn}.Reduce(x)
	}
}

// Compensate computes the final double result from the polynomial outputs
// (y1 is ignored by single-polynomial schemes). For single-polynomial
// schemes it is monotonically nondecreasing in y0, which is what makes the
// inverse output compensation (InvertMonotone) a binary search.
//
//evalhot:loop
func (l Lowered) Compensate(ctx Ctx, y0, y1 float64) float64 {
	switch l.kind {
	case loweredLog:
		return ctx.T + y0
	case loweredExp:
		return math.Ldexp(y0*ctx.T, ctx.E)
	default:
		// result = sign·(a·y0 + b·y1) for both two-polynomial families.
		return ctx.Sign * (ctx.A*y0 + ctx.B*y1)
	}
}

// Special returns the result for special-path inputs as a double whose
// rounding into any supported format under any mode is the correct result
// (±Inf, NaN, signed zeros, exact values, and saturated overflow/underflow
// proxies). It may be arbitrarily slow (the sinpi/cospi family consults
// the exact-value table), which is fine: evaluation reaches it only for
// inputs Reduce rejected. The //evalhot:cold marker below records that
// audit: the interprocedural hot-loop walk stops here instead of flagging
// the exact-value machinery.
//
//evalhot:cold
func (l Lowered) Special(x float64) float64 {
	switch l.kind {
	case loweredLog:
		return logScheme{l.fn}.Special(x)
	case loweredExp:
		return expScheme{l.fn}.Special(x)
	case loweredSinhCosh:
		return sinhCoshScheme{l.fn}.Special(x)
	default:
		return sinCosPiScheme{l.fn}.Special(x)
	}
}

// Kernels returns high-precision kernel values (y0, y1) at the reduced
// input r of a two-polynomial scheme.
func (l Lowered) Kernels(r float64, prec uint) (*big.Float, *big.Float) {
	if r == 0 {
		return new(big.Float).SetPrec(prec).SetInt64(1), new(big.Float).SetPrec(prec)
	}
	switch l.kind {
	case loweredSinhCosh:
		return bigmath.Eval(bigmath.Cosh, r, prec), bigmath.Eval(bigmath.Sinh, r, prec)
	case loweredSinCosPi:
		return bigmath.Eval(bigmath.CosPi, r, prec), bigmath.Eval(bigmath.SinPi, r, prec)
	}
	//lint:ignore barepanic the generator asks only two-polynomial schemes for kernel pairs.
	panic("reduction: Kernels of a single-polynomial scheme")
}
