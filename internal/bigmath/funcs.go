package bigmath

import (
	"fmt"
	"math"
	"math/big"
)

// Func identifies one of the ten elementary functions of the paper.
type Func int

const (
	Ln Func = iota
	Log2
	Log10
	Exp
	Exp2
	Exp10
	Sinh
	Cosh
	SinPi
	CosPi
	// NumFuncs is the number of supported functions.
	NumFuncs
)

// AllFuncs lists the ten functions in the paper's Table 1 order.
var AllFuncs = []Func{Ln, Log2, Log10, Exp, Exp2, Exp10, Sinh, Cosh, SinPi, CosPi}

var funcNames = [NumFuncs]string{
	"ln", "log2", "log10", "exp", "exp2", "exp10",
	"sinh", "cosh", "sinpi", "cospi",
}

func (f Func) String() string {
	if f < 0 || f >= NumFuncs {
		return fmt.Sprintf("Func(%d)", int(f))
	}
	return funcNames[f]
}

// ParseFunc resolves a function by its String name.
func ParseFunc(s string) (Func, error) {
	for i, n := range funcNames {
		if n == s {
			return Func(i), nil
		}
	}
	return 0, fmt.Errorf("bigmath: unknown function %q", s)
}

// Float64 evaluates the function in ordinary double precision via the math
// package; used by comparator libraries, not by the oracle.
func (f Func) Float64(x float64) float64 {
	switch f {
	case Ln:
		return math.Log(x)
	case Log2:
		return math.Log2(x)
	case Log10:
		return math.Log10(x)
	case Exp:
		return math.Exp(x)
	case Exp2:
		return math.Exp2(x)
	case Exp10:
		return math.Pow(10, x)
	case Sinh:
		return math.Sinh(x)
	case Cosh:
		return math.Cosh(x)
	case SinPi:
		if math.IsInf(x, 0) {
			return math.NaN()
		}
		if v, ok := ExactFloat64(SinPi, x); ok {
			// Vendor sinpi implementations honour the exact grid (±0, ±1
			// at half-integers); mod+sin would return 1e-16-grade noise.
			return v
		}
		z := math.Mod(x, 2)
		return math.Sin(math.Pi * z)
	case CosPi:
		if math.IsInf(x, 0) {
			return math.NaN()
		}
		if v, ok := ExactFloat64(CosPi, x); ok {
			return v
		}
		z := math.Mod(x, 2)
		return math.Cos(math.Pi * z)
	}
	//lint:ignore barepanic exhaustive Func switch; a new enum value is a compile-time change, not a runtime fault.
	panic("bigmath: bad func")
}

// Eval returns f(x) as a big.Float whose relative error is below
// 2^-(prec-28). The input must be finite; results that are ±Inf or NaN in
// the mathematical/IEEE sense are reported by Special and must be filtered
// by the caller. Exactly-representable results must be obtained from
// ExactValue; Eval's result for such inputs is accurate but carries series
// rounding like any other.
func Eval(f Func, x float64, prec uint) *big.Float {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		//lint:ignore barepanic caller contract: enumeration filters non-finite inputs before the oracle; a violation is a code bug.
		panic("bigmath: Eval on non-finite input")
	}
	w := prec + 32
	switch f {
	case Ln, Log2, Log10:
		if x <= 0 {
			//lint:ignore barepanic caller contract: reduction classifies non-positive log inputs as structural specials first.
			panic("bigmath: log of non-positive value")
		}
		l := logBig(new(big.Float).SetPrec(w).SetFloat64(x), w)
		switch f {
		case Log2:
			l.Quo(l, Ln2(w))
		case Log10:
			l.Quo(l, Ln10(w))
		}
		return l.SetPrec(prec)
	case Exp:
		return expBig(new(big.Float).SetPrec(w).SetFloat64(x), prec)
	case Exp2:
		arg := new(big.Float).SetPrec(w).SetFloat64(x)
		arg.Mul(arg, Ln2(w))
		return expBig(arg, prec)
	case Exp10:
		arg := new(big.Float).SetPrec(w).SetFloat64(x)
		arg.Mul(arg, Ln10(w))
		return expBig(arg, prec)
	case Sinh:
		return sinhBig(x, prec)
	case Cosh:
		ep := expBig(new(big.Float).SetPrec(w).SetFloat64(x), w)
		en := expBig(new(big.Float).SetPrec(w).SetFloat64(-x), w)
		ep.Add(ep, en)
		half := new(big.Float).SetPrec(w).SetFloat64(0.5)
		ep.Mul(ep, half)
		return ep.SetPrec(prec)
	case SinPi:
		s, _ := sinCosPiBig(x, prec)
		return s
	case CosPi:
		_, c := sinCosPiBig(x, prec)
		return c
	}
	//lint:ignore barepanic exhaustive Func switch; a new enum value is a compile-time change, not a runtime fault.
	panic("bigmath: bad func")
}

func sinhBig(x float64, prec uint) *big.Float {
	w := prec + 32
	ax := math.Abs(x)
	var res *big.Float
	if ax <= 1 {
		res = sinhSeries(new(big.Float).SetPrec(w).SetFloat64(ax), w)
	} else {
		ep := expBig(new(big.Float).SetPrec(w).SetFloat64(ax), w)
		en := expBig(new(big.Float).SetPrec(w).SetFloat64(-ax), w)
		ep.Sub(ep, en)
		half := new(big.Float).SetPrec(w).SetFloat64(0.5)
		res = ep.Mul(ep, half)
	}
	if math.Signbit(x) {
		res.Neg(res)
	}
	return res.SetPrec(prec)
}

// sinCosPiBig returns (sin(πx), cos(πx)) for finite x. The reduction is
// exact: z = |x| mod 2 is an exact double operation, j = round(4z) selects
// an octant, and a = z - j/4 is exact by Sterbenz, leaving |πa| ≤ π/8.
func sinCosPiBig(x float64, prec uint) (sinpi, cospi *big.Float) {
	w := prec + 32
	neg := math.Signbit(x)
	z := math.Mod(math.Abs(x), 2) // exact, in [0,2)
	j := int(roundToInt(4 * z))   // 0..8
	a := z - float64(j)/4         // exact, |a| ≤ 1/8

	theta := new(big.Float).SetPrec(w).SetFloat64(a)
	theta.Mul(theta, Pi(w))
	sa, ca := sinCosSeries(theta, w)

	// sin(π(j/4 + a)) = sp[j]·cos(πa) + cp[j]·sin(πa)
	// cos(π(j/4 + a)) = cp[j]·cos(πa) - sp[j]·sin(πa)
	// with sp[j] = sin(πj/4), cp[j] = cos(πj/4) ∈ {0, ±√2/2, ±1}.
	spNum, cpNum := octant(j)
	s22 := Sqrt2Over2(w)
	coef := func(n int) *big.Float {
		v := new(big.Float).SetPrec(w)
		switch n {
		case 0:
			return v
		case 1:
			return v.SetInt64(1)
		case -1:
			return v.SetInt64(-1)
		case 2:
			return v.Set(s22)
		case -2:
			return v.Neg(s22)
		}
		//lint:ignore barepanic coefficient is drawn from a fixed literal table; any other value is memory corruption.
		panic("bigmath: bad octant coefficient")
	}
	sp, cp := coef(spNum), coef(cpNum)

	sinpi = new(big.Float).SetPrec(w)
	sinpi.Mul(sp, ca)
	t := new(big.Float).SetPrec(w).Mul(cp, sa)
	sinpi.Add(sinpi, t)

	cospi = new(big.Float).SetPrec(w)
	cospi.Mul(cp, ca)
	t.Mul(sp, sa)
	cospi.Sub(cospi, t)

	if neg {
		sinpi.Neg(sinpi) // sinπ is odd; cosπ is even
	}
	return sinpi.SetPrec(prec), cospi.SetPrec(prec)
}

// octant returns (sin(πj/4), cos(πj/4)) encoded as 0, ±1 for 0, ±1 and ±2
// for ±√2/2.
func octant(j int) (sp, cp int) {
	switch j {
	case 0:
		return 0, 1
	case 1:
		return 2, 2
	case 2:
		return 1, 0
	case 3:
		return 2, -2
	case 4:
		return 0, -1
	case 5:
		return -2, -2
	case 6:
		return -1, 0
	case 7:
		return -2, 2
	case 8:
		return 0, 1
	}
	//lint:ignore barepanic octant is x mod 8 by construction; the switch is exhaustive.
	panic("bigmath: bad octant")
}
