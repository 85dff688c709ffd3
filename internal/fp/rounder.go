package fp

import "math"

// Rounder is the serving path's rounding: every format- and mode-derived
// constant (field widths, quantum floor, the canonical NaN/∞/zero/overflow
// bit patterns) is computed once at construction, so the per-value Round
// call does no recomputation and no allocation. The serving-path kernels
// (internal/eval) round every batched result through one Rounder.
//
// Two implementations, one contract: Round(v) == Format.FromFloat64(v,
// Mode) bit for bit, for every float64 v. Round decomposes v with
// Frexp/Ldexp and renormalises after rounding; FromFloat64 works on v's
// bit pattern. TestRounderMatchesFromFloat64 pins the two against each
// other, and FromFloat64 is pinned against FromBig.
type Rounder struct {
	f Format
	m Mode

	p    uint // mantissa bits
	minq int  // subnormal quantum exponent, EMin - MantBits
	bias int
	// Exponent field value that overflows to ∞/maxFinite: 2^|E| - 1.
	expCap int

	nan              uint64
	infPos, infNeg   uint64
	zeroPos, zeroNeg uint64
	sign             uint64
	ovfPos, ovfNeg   uint64 // overflowBits per sign, mode baked in
}

// NewRounder returns the rounder for repeated conversions into f under m.
func NewRounder(f Format, m Mode) Rounder {
	return Rounder{
		f:       f,
		m:       m,
		p:       uint(f.MantBits()),
		minq:    f.EMin() - f.MantBits(),
		bias:    f.Bias(),
		expCap:  (1 << uint(f.expBits)) - 1,
		nan:     f.NaN(),
		infPos:  f.Inf(false),
		infNeg:  f.Inf(true),
		zeroPos: f.Zero(false),
		zeroNeg: f.Zero(true),
		sign:    f.signMask(),
		ovfPos:  f.overflowBits(m, false),
		ovfNeg:  f.overflowBits(m, true),
	}
}

// Format returns the target format.
func (r *Rounder) Format() Format { return r.f }

// Mode returns the rounding mode.
func (r *Rounder) Mode() Mode { return r.m }

// overflow returns the precomputed overflow pattern for the sign.
func (r *Rounder) overflow(negative bool) uint64 {
	if negative {
		return r.ovfNeg
	}
	return r.ovfPos
}

// Round rounds the exact real value v into the rounder's format under its
// mode and returns the resulting bit pattern. It is FromFloat64 with the
// derived constants hoisted out of the call; the two stay bit-identical.
//
//evalhot:loop
func (r *Rounder) Round(v float64) uint64 {
	switch {
	case math.IsNaN(v):
		return r.nan
	case math.IsInf(v, 0):
		if math.Signbit(v) {
			return r.infNeg
		}
		return r.infPos
	case v == 0:
		if math.Signbit(v) {
			return r.zeroNeg
		}
		return r.zeroPos
	}
	negative := math.Signbit(v)
	mag := math.Abs(v)

	// Express mag = mant * 2^e2 with mant an integer (at most 53 bits).
	frac, exp := math.Frexp(mag) // mag = frac * 2^exp, frac in [0.5, 1)
	mant := uint64(math.Ldexp(frac, 53))
	e2 := exp - 53
	for mant&1 == 0 {
		mant >>= 1
		e2++
	}

	// Quantum exponent: ulp of the target at this magnitude.
	qe := exp - 1 - int(r.p)
	if qe < r.minq {
		qe = r.minq
	}

	var n uint64
	var guard, sticky bool
	switch s := e2 - qe; {
	case s >= 0:
		if s > 63 || mant > (math.MaxUint64>>uint(s)) {
			// Cannot happen for supported formats (see FromFloat64); guard
			// anyway.
			return r.overflow(negative)
		}
		n = mant << uint(s)
	case s >= -63:
		sh := uint(-s)
		n = mant >> sh
		guard = mant&(1<<(sh-1)) != 0
		sticky = mant&((1<<(sh-1))-1) != 0
	default:
		n, guard, sticky = 0, false, true
	}
	n = roundUnits(r.m, n, guard, sticky, negative)
	return r.assemble(n, qe, negative)
}

// assemble builds the bit pattern of n units of 2^qe, renormalising a
// rounding carry out of the significand first.
//
//evalhot:loop
func (r *Rounder) assemble(n uint64, qe int, negative bool) uint64 {
	sign := uint64(0)
	if negative {
		sign = r.sign
	}
	if n == 0 {
		return sign
	}
	for n >= 1<<(r.p+1) {
		n >>= 1
		qe++
	}
	var bits uint64
	if n < 1<<r.p {
		bits = n
		if qe != r.minq {
			//lint:ignore barepanic arithmetic invariant of the quantization; proven by the format algebra, not reachable from inputs.
			panic("fp: subnormal magnitude at non-subnormal quantum")
		}
	} else {
		field := qe + int(r.p) + r.bias
		if field >= r.expCap {
			return r.overflow(negative)
		}
		bits = uint64(field)<<r.p + (n - 1<<r.p)
	}
	return sign | bits
}
