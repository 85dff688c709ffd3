package fp

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Mode is a rounding direction. The five IEEE-754 modes are supported plus
// round-to-odd, the non-standard mode at the heart of the RLibm-All /
// RLIBM-Prog construction: a real value that is exactly representable
// rounds to itself; any other real rounds to the adjacent representable
// value whose mantissa is odd.
type Mode int

const (
	// RoundNearestEven is round-to-nearest, ties to even (rn).
	RoundNearestEven Mode = iota
	// RoundNearestAway is round-to-nearest, ties away from zero (ra).
	RoundNearestAway
	// RoundTowardZero is truncation (rz).
	RoundTowardZero
	// RoundTowardPositive is rounding toward +∞ (ru).
	RoundTowardPositive
	// RoundTowardNegative is rounding toward -∞ (rd).
	RoundTowardNegative
	// RoundToOdd is the non-standard round-to-odd mode (ro).
	RoundToOdd

	numModes = int(RoundToOdd) + 1
)

// StandardModes lists the five IEEE-754 rounding modes.
var StandardModes = []Mode{
	RoundNearestEven, RoundNearestAway, RoundTowardZero,
	RoundTowardPositive, RoundTowardNegative,
}

// AllModes lists the five IEEE modes plus round-to-odd.
var AllModes = append(append([]Mode{}, StandardModes...), RoundToOdd)

func (m Mode) String() string {
	switch m {
	case RoundNearestEven:
		return "rn"
	case RoundNearestAway:
		return "ra"
	case RoundTowardZero:
		return "rz"
	case RoundTowardPositive:
		return "ru"
	case RoundTowardNegative:
		return "rd"
	case RoundToOdd:
		return "ro"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the short mode names used by Mode.String.
func ParseMode(s string) (Mode, error) {
	for _, m := range AllModes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fp: unknown rounding mode %q", s)
}

// roundUnits decides, for a magnitude of n result units plus a discarded
// fraction described by (guard, sticky), whether to increment n. guard is
// the first discarded bit; sticky reports whether any lower discarded bit
// is set. negative is the sign of the value being rounded.
func roundUnits(m Mode, n uint64, guard, sticky, negative bool) uint64 {
	inexact := guard || sticky
	if !inexact {
		return n
	}
	switch m {
	case RoundNearestEven:
		if guard && (sticky || n&1 == 1) {
			return n + 1
		}
	case RoundNearestAway:
		if guard {
			return n + 1
		}
	case RoundTowardZero:
		// truncate
	case RoundTowardPositive:
		if !negative {
			return n + 1
		}
	case RoundTowardNegative:
		if negative {
			return n + 1
		}
	case RoundToOdd:
		if n&1 == 0 {
			return n + 1
		}
	}
	return n
}

// overflowBits returns the bit pattern produced when the rounded magnitude
// exceeds the largest finite value: toward-zero-like modes saturate at
// maxFinite while nearest modes produce ±∞. Round-to-odd saturates at
// maxFinite, whose mantissa is all ones and hence odd — this is exactly the
// behaviour required for the double-rounding theorem to extend to the
// overflow range.
func (f Format) overflowBits(m Mode, negative bool) uint64 {
	sign := uint64(0)
	if negative {
		sign = f.signMask()
	}
	switch m {
	case RoundNearestEven, RoundNearestAway:
		return sign | f.Inf(false)
	case RoundTowardZero, RoundToOdd:
		return sign | f.MaxFinite()
	case RoundTowardPositive:
		if negative {
			return sign | f.MaxFinite()
		}
		return f.Inf(false)
	case RoundTowardNegative:
		if negative {
			return sign | f.Inf(false)
		}
		return f.MaxFinite()
	}
	//lint:ignore barepanic exhaustive Mode switch; a new rounding mode is a compile-time change.
	panic("fp: bad mode")
}

// assemble packs a rounded magnitude of n units of 2^qe into a bit
// pattern, where qe ≥ minq = EMin - MantBits is the quantum the value was
// rounded at and n < 2^(p+1) units before rounding (so at most 2^(p+1)
// after). The pattern is (qe - minq)<<p + n: the subnormal quantum puts n
// straight into the mantissa field, each higher quantum adds one to the
// exponent field together with n's implicit leading bit, and a rounding
// carry out of the mantissa — subnormal→normal included — flows into the
// exponent field by itself. A pattern at or above ∞'s has overflowed.
func (f Format) assemble(m Mode, n uint64, qe int, negative bool) uint64 {
	p := uint(f.MantBits())
	b := uint64(qe-(f.EMin()-int(p)))<<p + n
	if b >= f.expMask() {
		return f.overflowBits(m, negative)
	}
	if negative {
		b |= f.signMask()
	}
	return b
}

// FromFloat64 rounds the exact real value v into the format under mode m
// and returns the resulting bit pattern. v is treated as an exact real
// number (every float64 is one); this is the rounding the generator, the
// verifier and the oracle apply to float64 results.
//
// It works on v's bit pattern: v = mant·2^e2 with mant the 53-bit
// significand (fewer bits for a subnormal double), and the target quantum
// is qe = max(e - p, minq) for the leading-bit exponent e. Because p ≤ 51,
// qe - e2 ≥ 1, so one right shift yields the kept units n, the guard bit
// and the sticky bits. Rounder.Round is the serving path's independent
// implementation of the same contract (pinned by
// TestRounderMatchesFromFloat64); FromBig's big.Int rounding is the
// reference FromFloat64 is tested and fuzzed against.
func (f Format) FromFloat64(v float64, m Mode) uint64 {
	vb := math.Float64bits(v)
	negative := vb>>63 != 0
	field := int(vb >> 52 & 0x7ff)
	mant := vb & (1<<52 - 1)
	switch {
	case field == 0x7ff:
		if mant != 0 {
			return f.NaN()
		}
		return f.Inf(negative)
	case field == 0 && mant == 0:
		return f.Zero(negative)
	}
	e2 := field - 1075 // v = mant·2^e2
	if field == 0 {
		e2 = -1074
	} else {
		mant |= 1 << 52
	}
	p := f.MantBits()
	qe := e2 + bits.Len64(mant) - 1 - p // the quantum at v's leading bit
	if minq := f.EMin() - p; qe < minq {
		qe = minq
	}
	sh := uint(qe - e2) // ≥ 1; a shift of 64 or more leaves only sticky bits
	n := mant >> sh
	guard := mant>>(sh-1)&1 != 0
	sticky := mant&(1<<(sh-1)-1) != 0
	return f.assemble(m, roundUnits(m, n, guard, sticky, negative), qe, negative)
}

// FromBig rounds the exact real value x into the format under mode m. x may
// carry arbitrary precision; the rounding consumes every bit, so the result
// is the correctly rounded value of x. Infinite x maps to ±∞ and a zero x
// preserves its sign.
func (f Format) FromBig(x *big.Float, m Mode) uint64 {
	if x.IsInf() {
		return f.Inf(x.Signbit())
	}
	if x.Sign() == 0 {
		return f.Zero(x.Signbit())
	}
	negative := x.Signbit()
	mag := new(big.Float).SetPrec(x.Prec()).Abs(x)

	// mag = mant * 2^(exp - prec) with mant an integer of exactly prec bits
	// (leading bit set).
	mantf := new(big.Float).SetPrec(mag.Prec())
	exp := mag.MantExp(mantf) // mag = mantf * 2^exp, mantf in [0.5,1)
	p0 := f.MantBits()
	if exp >= f.EMax()+2 {
		// mag >= 2^(EMax+1) > maxFinite: certain overflow. Clamp early so
		// extreme exponents never reach the big.Int shifts below.
		return f.overflowBits(m, negative)
	}
	if exp < f.EMin()-p0-1 {
		// mag < minSubnormal/2 and not a tie: rounds from zero units with
		// only a sticky bit.
		n := roundUnits(m, 0, false, true, negative)
		return f.assemble(m, n, f.EMin()-p0, negative)
	}
	prec := int(mag.MinPrec())
	mantf.SetMantExp(mantf, prec) // now an integer value
	mant, acc := mantf.Int(nil)
	if acc != big.Exact {
		//lint:ignore barepanic mantf was just shifted to an integer value; inexact extraction is impossible by construction.
		panic("fp: inexact mantissa extraction")
	}
	e2 := exp - prec

	p := uint(f.MantBits())
	ebin := exp - 1
	qe := ebin - int(p)
	if minq := f.EMin() - int(p); qe < minq {
		qe = minq
	}

	var n uint64
	var guard, sticky bool
	s := e2 - qe
	switch {
	case s >= 0:
		mant.Lsh(mant, uint(s))
		if !mant.IsUint64() {
			return f.overflowBits(m, negative)
		}
		n = mant.Uint64()
	default:
		sh := uint(-s)
		rem := new(big.Int)
		q := new(big.Int).Rsh(mant, sh)
		rem.And(mant, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), sh), big.NewInt(1)))
		if !q.IsUint64() {
			return f.overflowBits(m, negative)
		}
		n = q.Uint64()
		half := new(big.Int).Lsh(big.NewInt(1), sh-1)
		switch rem.Cmp(half) {
		case 0:
			guard, sticky = true, false
		case 1:
			guard = true
			sticky = true
		default:
			guard = false
			sticky = rem.Sign() != 0
		}
	}
	return f.assemble(m, roundUnits(m, n, guard, sticky, negative), qe, negative)
}

// RoundDecoded is a convenience that rounds v into f under m and returns the
// decoded float64 value of the result.
func (f Format) RoundDecoded(v float64, m Mode) float64 {
	return f.Decode(f.FromFloat64(v, m))
}
