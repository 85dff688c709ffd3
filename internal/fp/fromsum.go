package fp

import (
	"math"
	"math/bits"
)

// FromSum rounds the exact real value hi + lo into the format under mode,
// where (hi, lo) is an unevaluated double-double sum with |lo| ≤ |hi|/4
// (the double-double invariant |lo| ≤ ulp(hi)/2 implies it). It is the
// allocation-free equivalent of FromBig on the exact sum, used by the Ziv
// fast paths of the comparator libraries. Degenerate inputs (zero or
// non-finite hi, zero lo) defer to FromFloat64 on hi.
//
// The sum is assembled exactly in 128-bit fixed point with 64 fractional
// bits below the target quantum. A 53-bit mantissa sits at most p+12 ≤ 47
// bits above the fraction point, so no term ever overflows the window;
// bits of lo falling below the window contribute only a sticky flag (plus
// a one-unit borrow when lo is negative, which keeps the window value a
// faithful lower bound — exact for rounding, since every rounding boundary
// lies at or above the half-quantum bit).
func (f Format) FromSum(hi, lo float64, m Mode) uint64 {
	if hi == 0 || math.IsNaN(hi) || math.IsInf(hi, 0) || lo == 0 {
		return f.FromFloat64(hi, m)
	}
	negative := math.Signbit(hi)
	sign := 1.0
	if negative {
		sign = -1
	}
	a, b := hi*sign, lo*sign // a > 0, |b| ≤ a/4

	p := f.MantBits()
	_, expA := math.Frexp(a)
	// Early overflow/underflow clamps (|b| ≤ a/4 cannot change them).
	if expA-1 > f.EMax()+1 {
		return f.overflowBits(m, negative)
	}
	if expA < f.EMin()-p-2 {
		return f.assemble(m, roundUnits(m, 0, false, true, negative), f.EMin()-p, negative)
	}

	// Quantum exponent: the target's ulp at the magnitude of the sum. The
	// binade is that of s = rn(a+b), one lower when s is a power of two and
	// the exact error e of that sum is negative. Looking at a alone is not
	// enough: a b beyond ulp(a)/2 can move the sum across a's binade edge.
	s := a + b
	bb := s - a
	e := (a - (s - bb)) + (b - bb)
	fracS, expS := math.Frexp(s)
	ebin := expS - 1
	if fracS == 0.5 && e < 0 {
		ebin--
	}
	qe := ebin - p
	if minq := f.EMin() - p; qe < minq {
		qe = minq
	}

	// acc = (hi word: whole quanta) : (lo word: 64 fraction bits).
	var accHi, accLo uint64
	sticky := false

	addTerm := func(v float64) {
		neg := v < 0
		frac, exp := math.Frexp(math.Abs(v))
		mant := uint64(math.Ldexp(frac, 53)) // exactly 53 bits
		sh := (exp - 53) - qe + 64           // position of mant's LSB in the window
		var tHi, tLo uint64
		switch {
		case sh >= 64:
			// mant's low bit is already in the whole-quanta word; sh ≤
			// p+12+64, and mant<<(sh-64) fits: sh-64 ≤ p-1 ≤ 33.
			tHi = mant << uint(sh-64)
		case sh >= 0:
			tLo = mant << uint(sh)
			if sh > 11 { // 53+sh > 64: spills into the high word
				tHi = mant >> uint(64-sh)
			}
		case sh > -53:
			down := uint(-sh)
			tLo = mant >> down
			if mant&((1<<down)-1) != 0 {
				sticky = true
				if neg {
					borrowOne(&accHi, &accLo)
				}
			}
		default:
			// Entire term below the window.
			sticky = true
			if neg {
				borrowOne(&accHi, &accLo)
			}
			return
		}
		if neg {
			var borrow uint64
			accLo, borrow = bits.Sub64(accLo, tLo, 0)
			accHi, _ = bits.Sub64(accHi, tHi, borrow)
		} else {
			var carry uint64
			accLo, carry = bits.Add64(accLo, tLo, 0)
			accHi, _ = bits.Add64(accHi, tHi, carry)
		}
	}
	addTerm(a)
	addTerm(b)

	n := accHi
	guard := accLo>>63 != 0
	sticky = sticky || accLo<<1 != 0
	return f.assemble(m, roundUnits(m, n, guard, sticky, negative), qe, negative)
}

func borrowOne(accHi, accLo *uint64) {
	var borrow uint64
	*accLo, borrow = bits.Sub64(*accLo, 1, 0)
	*accHi -= borrow
}
