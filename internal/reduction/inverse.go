package reduction

import (
	"math"
	"math/big"

	"repro/internal/interval"
)

// fKey maps float64s to int64s preserving numeric order (the standard
// sign-magnitude flip); it is an involution, so it also maps keys back.
func fKey(f float64) int64 {
	i := int64(math.Float64bits(f))
	if i < 0 {
		i ^= 0x7fffffffffffffff
	}
	return i
}

func keyF(i int64) float64 {
	if i < 0 {
		i ^= 0x7fffffffffffffff
	}
	return math.Float64frombits(uint64(i))
}

// InvertMonotone computes the inverse output compensation for
// single-polynomial schemes: the closed interval of doubles y for which
// l.Compensate(ctx, y, 0) lands in iv. Compensate must be monotonically
// nondecreasing in y (all single-polynomial schemes in this package are).
// ok is false when no double output can produce a value in iv — such
// inputs become special-case entries.
func InvertMonotone(l Lowered, ctx Ctx, iv interval.Interval) (interval.Interval, bool) {
	oc := func(y float64) float64 { return l.Compensate(ctx, y, 0) }

	loKey, hiKey := fKey(-math.MaxFloat64), fKey(math.MaxFloat64)
	// The key range spans nearly the whole int64 range, so midpoints are
	// computed through uint64 to avoid overflow.
	midLow := func(a, b int64) int64 { return a + int64((uint64(b)-uint64(a))/2) }
	midHigh := func(a, b int64) int64 { return a + int64((uint64(b)-uint64(a)+1)/2) }

	// Smallest y with oc(y) >= iv.Lo.
	a, b := loKey, hiKey
	if oc(keyF(b)) < iv.Lo {
		return interval.Interval{}, false
	}
	for a < b {
		mid := midLow(a, b)
		if oc(keyF(mid)) >= iv.Lo {
			b = mid
		} else {
			a = mid + 1
		}
	}
	yLo := keyF(a)

	// Largest y with oc(y) <= iv.Hi.
	a, b = loKey, hiKey
	if oc(keyF(a)) > iv.Hi {
		return interval.Interval{}, false
	}
	for a < b {
		mid := midHigh(a, b)
		if oc(keyF(mid)) <= iv.Hi {
			a = mid
		} else {
			b = mid - 1
		}
	}
	yHi := keyF(a)

	if yLo > yHi {
		return interval.Interval{}, false
	}
	// Paranoia: both endpoints must actually land inside.
	if v := oc(yLo); v < iv.Lo || v > iv.Hi {
		return interval.Interval{}, false
	}
	if v := oc(yHi); v < iv.Lo || v > iv.Hi {
		return interval.Interval{}, false
	}
	return interval.Interval{Lo: yLo, Hi: yHi}, true
}

// evalGuard bounds the absolute rounding error of the double evaluation
// a·y0 + b·y1 (two multiplies and one add, each ≤ half an ulp).
func evalGuard(t0, t1 float64) float64 {
	return 4e-16 * (math.Abs(t0) + math.Abs(t1))
}

// SplitAffine computes per-kernel output boxes for two-polynomial schemes.
// Given the exact kernel values y0s, y1s at the reduced input and a target
// result interval iv, it returns intervals I0 and I1 such that any kernel
// outputs (y0, y1) ∈ I0 × I1 make the production double evaluation
// sign·(a·y0 + b·y1) — Lowered.Compensate with sign, a, b = ctx.Sign,
// ctx.A, ctx.B — land in iv. Each kernel receives half of the
// available slack, scaled by its multiplier; the double-evaluation
// rounding is charged against the slack up front. ok is false when the
// slack is exhausted (the input must be special-cased).
func SplitAffine(ctx Ctx, y0s, y1s *big.Float, iv interval.Interval) (i0, i1 interval.Interval, ok bool) {
	sign, a, b := ctx.Sign, ctx.A, ctx.B
	lo, hi := iv.Lo, iv.Hi
	if sign < 0 {
		lo, hi = -hi, -lo
	}

	// Center c = a·y0* + b·y1* in high precision.
	const prec = 160
	c := new(big.Float).SetPrec(prec).SetFloat64(a)
	c.Mul(c, y0s)
	t := new(big.Float).SetPrec(prec).SetFloat64(b)
	t.Mul(t, y1s)
	c.Add(c, t)

	dLo := new(big.Float).SetPrec(prec).Sub(c, new(big.Float).SetPrec(53).SetFloat64(lo))
	dHi := new(big.Float).SetPrec(prec).Sub(new(big.Float).SetPrec(53).SetFloat64(hi), c)
	slackLo, _ := dLo.Float64()
	slackHi, _ := dHi.Float64()

	y0d, _ := y0s.Float64()
	y1d, _ := y1s.Float64()
	guard := evalGuard(a*y0d, b*y1d)
	// Charge the evaluation rounding and the double-rounding of the exact
	// centers against the slack.
	guard += 2 * (math.Abs(a)*ulpOf(y0d) + math.Abs(b)*ulpOf(y1d))
	slackLo -= guard
	slackHi -= guard
	if slackLo <= 0 || slackHi <= 0 {
		return i0, i1, false
	}

	box := func(kappa, yd float64) (interval.Interval, bool) {
		if kappa == 0 {
			return interval.Interval{Lo: -math.MaxFloat64, Hi: math.MaxFloat64}, true
		}
		// Contribution κ·Δ must stay in [-slackLo/2, slackHi/2].
		dn, up := slackLo/2/math.Abs(kappa), slackHi/2/math.Abs(kappa)
		if kappa < 0 {
			dn, up = up, dn
		}
		out := interval.Interval{Lo: yd - dn, Hi: yd + up}
		return out, !out.Empty()
	}
	var ok0, ok1 bool
	i0, ok0 = box(a, y0d)
	i1, ok1 = box(b, y1d)
	return i0, i1, ok0 && ok1
}

func ulpOf(v float64) float64 {
	return math.Abs(math.Nextafter(v, math.Inf(1)) - v)
}
