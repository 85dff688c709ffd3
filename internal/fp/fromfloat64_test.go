package fp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refFromFloat64 is FromFloat64's independent reference: the exact value of
// v rounded by FromBig's big.Int arithmetic.
func refFromFloat64(f Format, v float64, m Mode) uint64 {
	if math.IsNaN(v) {
		return f.NaN()
	}
	return f.FromBig(new(big.Float).SetFloat64(v), m)
}

// fromFloat64Formats adds to rounderFormats the widest mantissa FromFloat64
// accepts (51 bits, one below float64's) and a 10-bit exponent field.
var fromFloat64Formats = append(append([]Format{}, rounderFormats...),
	MustFormat(60, 8), MustFormat(24, 10))

// fromFloat64Corpus returns random bit patterns, subnormal doubles,
// ±MaxFloat64 and, for f, values at and next to its rounding midpoints
// and its overflow edges.
func fromFloat64Corpus(f Format, rng *rand.Rand) []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // largest subnormal double
	}
	for i := 0; i < 20000; i++ {
		vs = append(vs, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 2000; i++ {
		vs = append(vs, math.Float64frombits(rng.Uint64()&(1<<63|1<<52-1)))
	}
	// neighbours adds v, its double neighbours and their negations.
	neighbours := func(v float64) {
		for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			vs = append(vs, w, -w)
		}
	}
	// Midpoints between adjacent values of f: exact in float64 because
	// f has at most 51 mantissa bits. The low patterns cover the subnormal
	// range and its edge to the normals; the rest are random.
	for i := 0; i < 4000; i++ {
		b := rng.Uint64() & (f.NumValues()/2 - 1)
		if i < 64 {
			b = uint64(i)
		} else if i < 128 {
			b = uint64(1)<<uint(f.MantBits()) + uint64(i) - 96
		}
		if !f.IsFinite(f.NextUp(b)) {
			continue
		}
		lo, hi := f.Decode(b), f.Decode(f.NextUp(b))
		neighbours(lo + (hi-lo)/2)
		neighbours(lo)
	}
	// Overflow edges: maxFinite, the round-to-nearest overflow threshold
	// maxFinite + ulp/2, and 2^(EMax+1).
	maxv := f.MaxFiniteValue()
	ulp := math.Ldexp(1, f.EMax()-f.MantBits())
	neighbours(maxv)
	neighbours(maxv + ulp/2)
	neighbours(maxv + ulp)
	return vs
}

// TestFromBigMatchesFromFloat64 pins the bits-only FromFloat64 against
// FromBig, an independent big.Int implementation of the same rounding,
// for every format × mode.
func TestFromBigMatchesFromFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range fromFloat64Formats {
		corpus := fromFloat64Corpus(f, rng)
		for _, m := range AllModes {
			for _, v := range corpus {
				if got, want := f.FromFloat64(v, m), refFromFloat64(f, v, m); got != want {
					t.Fatalf("%v/%v: FromFloat64(%x) = %#x, FromBig = %#x", f, m, v, got, want)
				}
			}
		}
	}
}

// TestFromFloat64ZeroAllocs: the verifier rounds every (input, mode) pair
// through FromFloat64, so it must not allocate.
func TestFromFloat64ZeroAllocs(t *testing.T) {
	vs := []float64{1.5, -0.375, math.Pi, 1e30, 1e-30, 5e-324, math.NaN(), math.Inf(-1)}
	if n := testing.AllocsPerRun(100, func() {
		for _, f := range fromFloat64Formats {
			for _, m := range AllModes {
				for _, v := range vs {
					_ = f.FromFloat64(v, m)
				}
			}
		}
	}); n != 0 {
		t.Fatalf("FromFloat64 allocates %v times per run", n)
	}
}

// FuzzFromFloat64 checks FromFloat64 against FromBig for any double, any
// supported format and any mode. Unsupported (width, exponent) pairs are
// skipped. The seeds under testdata/fuzz/FuzzFromFloat64 pin a subnormal
// double, a tensorfloat32 tie, bfloat16's overflow threshold and a
// 51-mantissa-bit format.
func FuzzFromFloat64(f *testing.F) {
	f.Add(uint64(0x3ff8000000000000), uint8(16), uint8(8), uint8(RoundNearestEven))
	f.Add(uint64(1), uint8(19), uint8(8), uint8(RoundToOdd))
	f.Fuzz(func(t *testing.T, bits uint64, width, expBits, mode uint8) {
		format, err := NewFormat(int(width), int(expBits))
		if err != nil {
			t.Skip()
		}
		v, m := math.Float64frombits(bits), Mode(int(mode)%numModes)
		if got, want := format.FromFloat64(v, m), refFromFloat64(format, v, m); got != want {
			t.Fatalf("%v/%v: FromFloat64(%x) = %#x, FromBig = %#x", format, m, v, got, want)
		}
	})
}
