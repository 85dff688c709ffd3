package dd

import (
	"math"
	"math/big"
	"sync"

	"repro/internal/bigmath"
)

// Double-double tables and constants, filled at init from the oracle.
var (
	exp2JDD [64]DD // 2^(j/64)
	// Log tables are re-centered: F = 0.75 + j/128 ∈ [0.75, 1.5) so that
	// e = 0 whenever x ∈ [0.75, 1.5) and the e·log2 + log(F) combination
	// never cancels catastrophically near x = 1.
	lnFDD    [97]DD // ln(0.75 + j/128)
	log2FDD  [97]DD // log2(0.75 + j/128)
	log10FDD [97]DD // log10(0.75 + j/128)
	sinPiDD  [33]DD // sinπ(i/64)
	cosPiDD  [33]DD // cosπ(i/64)

	ln2DD     DD // ln 2
	ln10DD    DD // ln 10
	invLn10DD DD // 1/ln 10
	log102DD  DD // log10 2
	log2eDD   DD // 1/ln 2
	piDD      DD // π

	ln2o64Hi, ln2o64Lo   float64 // ln2/64 hi/lo (hi has 32 bits)
	lg2o64Hi, lg2o64Lo   float64 // log10(2)/64 hi/lo
	invLn2x64, invLg2x64 float64
)

func toDD(v *big.Float) DD {
	hi, _ := v.Float64()
	rest := new(big.Float).SetPrec(v.Prec()).Sub(v, new(big.Float).SetPrec(53).SetFloat64(hi))
	lo, _ := rest.Float64()
	return DD{hi, lo}
}

func evalDD(fn bigmath.Func, x float64) DD {
	return toDD(bigmath.Eval(fn, x, 140))
}

func round32(v float64) float64 {
	f, e := math.Frexp(v)
	return math.Ldexp(math.Round(f*(1<<32))/(1<<32), e)
}

// tablesOnce guards initTables. The tables cost some 450 big.Float
// evaluations, so they are built on the first Eval rather than at package
// init: a program that links the package without evaluating (every command
// that imports the oracle but never queries it) skips the work and the
// garbage it leaves behind.
var tablesOnce sync.Once

func initTables() {
	for j := 0; j < 64; j++ {
		if j == 0 {
			exp2JDD[0] = DD{1, 0}
			continue
		}
		exp2JDD[j] = evalDD(bigmath.Exp2, float64(j)/64)
	}
	for j := 0; j < 97; j++ {
		F := 0.75 + float64(j)/128
		if F == 1 {
			continue // exact zeros
		}
		lnFDD[j] = evalDD(bigmath.Ln, F)
		log2FDD[j] = evalDD(bigmath.Log2, F)
		log10FDD[j] = evalDD(bigmath.Log10, F)
	}
	for i := 1; i < 32; i++ {
		sinPiDD[i] = evalDD(bigmath.SinPi, float64(i)/64)
		cosPiDD[i] = evalDD(bigmath.CosPi, float64(i)/64)
	}
	sinPiDD[0], cosPiDD[0] = DD{0, 0}, DD{1, 0}
	sinPiDD[32], cosPiDD[32] = DD{1, 0}, DD{0, 0}

	ln2DD = toDD(bigmath.Ln2(140))
	ln10DD = toDD(bigmath.Ln10(140))
	log102DD = toDD(bigmath.Log10Of2(140))
	pi140 := bigmath.Pi(140)
	piDD = toDD(pi140)
	inv := new(big.Float).SetPrec(140).Quo(new(big.Float).SetPrec(140).SetInt64(1), bigmath.Ln2(140))
	log2eDD = toDD(inv)
	inv10 := new(big.Float).SetPrec(140).Quo(new(big.Float).SetPrec(140).SetInt64(1), bigmath.Ln10(140))
	invLn10DD = toDD(inv10)

	q := new(big.Float).SetPrec(140).Quo(bigmath.Ln2(140), new(big.Float).SetPrec(140).SetInt64(64))
	qf, _ := q.Float64()
	ln2o64Hi = round32(qf)
	rest := new(big.Float).SetPrec(140).Sub(q, new(big.Float).SetPrec(53).SetFloat64(ln2o64Hi))
	ln2o64Lo, _ = rest.Float64()
	invLn2x64 = 64 / (ln2DD.Hi)

	q = new(big.Float).SetPrec(140).Quo(bigmath.Log10Of2(140), new(big.Float).SetPrec(140).SetInt64(64))
	qf, _ = q.Float64()
	lg2o64Hi = round32(qf)
	rest = new(big.Float).SetPrec(140).Sub(q, new(big.Float).SetPrec(53).SetFloat64(lg2o64Hi))
	lg2o64Lo, _ = rest.Float64()
	invLg2x64 = 64 / log102DD.Hi
}

type expBaseKind int

const (
	expBase expBaseKind = iota
	exp2Base
	exp10Base
)

// expFamily computes e^x, 2^x or 10^x. Reduction: x = N·c + (r + rlo) with
// the (r, rlo) pair exact to ~2^-95, then base^x = 2^(N/64)·e^(t+tlo) where
// (t, tlo) = (r, rlo)·ln(base) (exact for exp2 after scaling).
func expFamily(x float64, kind expBaseKind) DD {
	if math.IsInf(x, 0) {
		if x > 0 {
			return DD{Hi: math.Inf(1)}
		}
		return DD{Hi: 0}
	}
	// Double-range cutoffs (the comparators model double libraries, which
	// overflow to +Inf / underflow to 0 at these magnitudes).
	var over, under float64
	switch kind {
	case expBase:
		over, under = 710, -745
	case exp2Base:
		over, under = 1025, -1075
	default:
		over, under = 309, -324
	}
	if x >= over {
		// Finite but beyond double range: a saturated sticky proxy keeps
		// directed-mode rounding of the working formats correct (+Inf is
		// reserved for genuinely infinite results).
		return DD{Hi: math.MaxFloat64}
	}
	if x <= under {
		// Positive but below every representable double: sticky proxy.
		return DD{Hi: math.SmallestNonzeroFloat64}
	}

	var n float64
	var r, rlo float64 // reduced argument pair
	switch kind {
	case expBase:
		n = math.Round(x * invLn2x64)
		t1 := x - n*ln2o64Hi // exact: 32-bit hi, |n| < 2^17
		p, e := twoProd(n, ln2o64Lo)
		r, rlo = twoSum(t1, -p)
		rlo -= e
	case exp2Base:
		n = math.Round(x * 64)
		r, rlo = x-n/64, 0 // exact
	default:
		n = math.Round(x * invLg2x64)
		t1 := x - n*lg2o64Hi
		p, e := twoProd(n, lg2o64Lo)
		r, rlo = twoSum(t1, -p)
		rlo -= e
	}
	ni := int(n)
	q, j := ni>>6, ni&63

	// Convert to the natural base: t = r·ln(base) in dd.
	var t DD
	switch kind {
	case expBase:
		t = DD{r, rlo}
	case exp2Base:
		t = mulDDFloat(ln2DD, r)
	default:
		th := mulDDFloat(ln10DD, r)
		t = addDD(th, mulDDFloat(ln10DD, rlo))
	}
	// e^t = 1 + t + t²·P(t), |t| ≤ 0.0127 (exp10 case); P in plain double
	// contributes below 2^-68 absolutely.
	th := t.Hi
	p := th * th * (0.5 + th*(1.0/6+th*(1.0/24+th*(1.0/120+th*(1.0/720+th*(1.0/5040))))))
	// e^t - 1 ≈ (t.Hi + (t.Lo + p)) in dd.
	eh, el := fastTwoSum(th, t.Lo+p)
	// result = T[j]·(1 + (eh, el)), scaled by 2^q.
	T := exp2JDD[j]
	prod := mulDD(T, DD{eh, el})
	out := addDD(T, prod)
	return out.scale(q)
}

type logBaseKind int

const (
	lnBase logBaseKind = iota
	log2Base
	log10Base
)

// logFamily computes ln, log2 or log10: x = 2^e·F·(1+u) with
// u = (m-F)/F carried as a dd quotient, log(1+u) = u + u²·Q(u) with Q in
// double, combined with dd tables for log(F) and e·log(2). F is the
// *nearest* grid point (u may be negative): together with the [0.75, 1.5)
// recentering this makes F = 1 exactly for m ≈ 1, so the result never
// cancels against the table.
func logFamily(x float64, kind logBaseKind) DD {
	switch {
	case x == 0:
		return DD{Hi: math.Inf(-1)}
	case x < 0:
		return DD{Hi: math.NaN()}
	case math.IsInf(x, 1):
		return DD{Hi: math.Inf(1)}
	}
	frac, exp := math.Frexp(x)
	m := 2 * frac
	e := float64(exp - 1)
	if m >= 1.5 {
		m /= 2 // exact
		e++
	}
	j := int(math.Round((m - 0.75) * 128)) // 0..96, nearest grid point
	F := 0.75 + float64(j)/128
	a := m - F // exact (Sterbenz), |a| ≤ 1/256
	// u = a/F in dd.
	uh := a / F
	ul := math.FMA(-uh, F, a) / F

	// log(1+u) = u - u²/2 + u³/3 - … : tail beyond u in double, carried to
	// u¹¹ so that even when the whole result is ≈ u (x just above 1 with
	// F = 1) the truncation stays below 2^-80 of it.
	q := uh * uh * (-0.5 + uh*(1.0/3+uh*(-0.25+uh*(0.2+uh*(-1.0/6+uh*(1.0/7+uh*(-0.125+uh*(1.0/9+uh*(-0.1+uh*(1.0/11))))))))))
	lh, ll := fastTwoSum(uh, ul+q)
	l1p := DD{lh, ll} // ln(1+u)

	switch kind {
	case lnBase:
		out := addDD(lnFDD[j], l1p)
		return addDD(mulDDFloat(ln2DD, e), out)
	case log2Base:
		out := addDD(log2FDD[j], mulDD(l1p, log2eDD))
		return addDD(DD{e, 0}, out)
	default:
		l10 := mulDD(l1p, invLn10DD)
		out := addDD(log10FDD[j], l10)
		return addDD(mulDDFloat(log102DD, e), out)
	}
}

// sinhCosh computes sinh (sin=true) or cosh via e^x and e^-x for |x| ≥ ½,
// and a dedicated series for small sinh (cancellation-free everywhere).
func sinhCosh(x float64, sinh bool) DD {
	if math.IsInf(x, 0) {
		if !sinh {
			return DD{Hi: math.Inf(1)}
		}
		return DD{Hi: x}
	}
	a := math.Abs(x)
	if a >= 711 {
		// Finite result beyond double range: saturated sticky proxy.
		v := math.MaxFloat64
		if sinh && x < 0 {
			v = -v
		}
		return DD{Hi: v}
	}
	if sinh && x == 0 {
		return DD{Hi: x} // ±0
	}
	if a < 0.125 {
		if sinh {
			return sinhSmall(x)
		}
		return coshSmall(x)
	}
	ep := expFamily(a, expBase)
	en := expFamily(-a, expBase)
	var s DD
	if sinh {
		s = addDD(ep, DD{-en.Hi, -en.Lo})
	} else {
		s = addDD(ep, en)
	}
	s = s.scale(-1)
	if sinh && x < 0 {
		s = DD{-s.Hi, -s.Lo}
	}
	return s
}

// sinhSmall: sinh x = x + x³/6·S(x²) with the cubic term in dd
// (|x| < 0.125 keeps the double-precision bracket below 2^-60 of the
// result).
func sinhSmall(x float64) DD {
	x2 := x * x
	s := 1 + x2*(0.05+x2*(1.0/840+x2*(1.0/60480+x2*(1.0/6652800))))
	// cube = x³ in dd.
	ph, pe := twoProd(x, x)
	ch, ce := twoProd(ph, x)
	ce = math.FMA(pe, x, ce)
	cube := DD{ch, ce}
	term := mulDDFloat(cube, s/6)
	return addDD(DD{x, 0}, term)
}

// coshSmall: cosh x = 1 + x²/2·C(x²) with the quadratic term in dd.
func coshSmall(x float64) DD {
	x2h, x2l := twoProd(x, x)
	c := 1 + x2h*(1.0/12+x2h*(1.0/360+x2h*(1.0/20160+x2h*(1.0/1814400))))
	term := mulDDFloat(DD{x2h, x2l}, c/2)
	return addDD(DD{1, 0}, term)
}

// sinCosPi: exact fold to w ∈ [0,½] (as in internal/reduction), then
// θ = π·(w - i/64) as a dd product and table recombination.
func sinCosPi(x float64, sin bool) DD {
	if math.IsInf(x, 0) {
		return DD{Hi: math.NaN()}
	}
	if 2*x == math.Trunc(2*x) {
		// Exact grid: ±0, ±1 values.
		z := math.Mod(math.Abs(x), 2)
		if sin {
			switch z {
			case 0, 1:
				s := math.Copysign(0, x)
				return DD{Hi: s}
			case 0.5:
				return DD{Hi: math.Copysign(1, x)}
			default: // 1.5: sinπ(±1.5) = ∓1
				return DD{Hi: -math.Copysign(1, x)}
			}
		}
		switch z {
		case 0:
			return DD{Hi: 1}
		case 1:
			return DD{Hi: -1}
		default:
			return DD{Hi: 0}
		}
	}
	z := math.Mod(math.Abs(x), 2)
	ssign, csign := 1.0, 1.0
	w := z
	if w > 1 {
		w = z - 1
		ssign, csign = -1, -1
	}
	if w > 0.5 {
		w = 1 - w
		csign = -csign
	}
	if math.Signbit(x) {
		ssign = -ssign
	}
	i := int(math.Round(w * 64))
	r := w - float64(i)/64 // exact

	theta := mulDDFloat(piDD, r) // |θ| ≤ π/128
	th := theta.Hi
	t2 := th * th
	// sin θ = θ + θ·t2·S(t2), cos θ = 1 + t2·C(t2): tails in double.
	sTail := t2 * (-1.0/6 + t2*(1.0/120+t2*(-1.0/5040)))
	cTail := -0.5 + t2*(1.0/24+t2*(-1.0/720+t2*(1.0/40320)))
	sinT := addDD(theta, DD{th * sTail, 0})
	cosT := addDD(DD{1, 0}, DD{t2 * cTail, 0})
	// Recombine with the octant tables.
	sp, cp := sinPiDD[i], cosPiDD[i]
	var out DD
	if sin {
		out = addDD(mulDD(sp, cosT), mulDD(cp, sinT))
		out = DD{out.Hi * ssign, out.Lo * ssign}
	} else {
		out = addDD(mulDD(cp, cosT), DD{-1, 0}.mulInto(mulDD(sp, sinT)))
		out = DD{out.Hi * csign, out.Lo * csign}
	}
	return out
}

// mulInto multiplies m by the receiver's Hi (±1 helper).
func (d DD) mulInto(m DD) DD { return DD{m.Hi * d.Hi, m.Lo * d.Hi} }
