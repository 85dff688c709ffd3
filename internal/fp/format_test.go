package fp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestFormatParams(t *testing.T) {
	cases := []struct {
		f                      Format
		mant, bias, emin, emax int
	}{
		{Bfloat16, 7, 127, -126, 127},
		{TensorFloat32, 10, 127, -126, 127},
		{Float32, 23, 127, -126, 127},
		{Float16, 10, 15, -14, 15},
		{MustFormat(34, 8), 25, 127, -126, 127},
	}
	for _, c := range cases {
		if got := c.f.MantBits(); got != c.mant {
			t.Errorf("%v MantBits = %d, want %d", c.f, got, c.mant)
		}
		if got := c.f.Bias(); got != c.bias {
			t.Errorf("%v Bias = %d, want %d", c.f, got, c.bias)
		}
		if got := c.f.EMin(); got != c.emin {
			t.Errorf("%v EMin = %d, want %d", c.f, got, c.emin)
		}
		if got := c.f.EMax(); got != c.emax {
			t.Errorf("%v EMax = %d, want %d", c.f, got, c.emax)
		}
	}
}

func TestNewFormatErrors(t *testing.T) {
	bad := [][2]int{{3, 2}, {61, 8}, {16, 1}, {16, 11}, {9, 8}, {60, 5}}
	for _, b := range bad {
		if _, err := NewFormat(b[0], b[1]); err == nil {
			t.Errorf("NewFormat(%d,%d) succeeded, want error", b[0], b[1])
		}
	}
	if _, err := NewFormat(10, 7); err != nil { // one mantissa bit is legal
		t.Errorf("NewFormat(10,7): %v", err)
	}
}

func TestParseFormat(t *testing.T) {
	for _, s := range []string{"F19,8", "19,8"} {
		f, err := ParseFormat(s)
		if err != nil {
			t.Fatalf("ParseFormat(%q): %v", s, err)
		}
		if f != TensorFloat32 {
			t.Errorf("ParseFormat(%q) = %v", s, f)
		}
	}
	if _, err := ParseFormat("nope"); err == nil {
		t.Error("ParseFormat(nope) succeeded")
	}
}

func TestDecodeSpecials(t *testing.T) {
	f := Bfloat16
	if !math.IsNaN(f.Decode(f.NaN())) {
		t.Error("NaN does not decode to NaN")
	}
	if v := f.Decode(f.Inf(false)); !math.IsInf(v, 1) {
		t.Errorf("+Inf decodes to %v", v)
	}
	if v := f.Decode(f.Inf(true)); !math.IsInf(v, -1) {
		t.Errorf("-Inf decodes to %v", v)
	}
	if v := f.Decode(f.Zero(true)); v != 0 || !math.Signbit(v) {
		t.Errorf("-0 decodes to %v", v)
	}
	if v := f.Decode(f.Zero(false)); v != 0 || math.Signbit(v) {
		t.Errorf("+0 decodes to %v", v)
	}
}

// Float32 semantics must coincide exactly with Go's float32.
func TestFloat32AgreesWithHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		bits := rng.Uint32()
		want := math.Float32frombits(bits)
		got := Float32.Decode(uint64(bits))
		if math.IsNaN(float64(want)) {
			if !math.IsNaN(got) {
				t.Fatalf("bits %#x: want NaN, got %v", bits, got)
			}
			continue
		}
		if got != float64(want) {
			t.Fatalf("bits %#x: Decode=%v, float32=%v", bits, got, want)
		}
	}
}

func TestFromFloat64MatchesFloat32Conversion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		// Random double with moderate exponent so conversions exercise
		// normals, subnormals and overflow.
		v := math.Ldexp(rng.Float64()*2-1, rng.Intn(300)-150)
		want := math.Float32bits(float32(v)) // Go converts with rn
		got := Float32.FromFloat64(v, RoundNearestEven)
		if uint64(want) != got {
			t.Fatalf("v=%g: FromFloat64=%#x float32=%#x", v, got, want)
		}
	}
	// Explicit specials.
	if got := Float32.FromFloat64(math.Inf(1), RoundNearestEven); got != Float32.Inf(false) {
		t.Errorf("+Inf: %#x", got)
	}
	if got := Float32.FromFloat64(math.Copysign(0, -1), RoundNearestEven); got != Float32.Zero(true) {
		t.Errorf("-0: %#x", got)
	}
	if got := Float32.FromFloat64(math.NaN(), RoundNearestEven); got != Float32.NaN() {
		t.Errorf("NaN: %#x", got)
	}
}

// Every representable value must round to itself under every mode.
func TestRoundTripExhaustiveBfloat16(t *testing.T) {
	f := Bfloat16
	for b := uint64(0); b < f.NumValues(); b++ {
		v := f.Decode(b)
		if math.IsNaN(v) {
			continue
		}
		for _, m := range AllModes {
			got := f.FromFloat64(v, m)
			if got != b {
				t.Fatalf("bits %#x (%g) mode %v: rounds to %#x", b, v, m, got)
			}
		}
	}
}

// Directed rounding from a value strictly between two neighbours must land
// on the correct side, and RO must land on the odd neighbour.
func TestRoundingBetweenNeighbours(t *testing.T) {
	f := TensorFloat32
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		b := uint64(rng.Int63n(int64(f.MaxFinite() - 2)))
		lo, hi := f.Decode(b), f.Decode(b+1)
		if math.IsNaN(lo) || math.IsNaN(hi) || lo == 0 {
			continue
		}
		frac := rng.Float64()
		if frac == 0 || frac == 0.5 {
			frac = 0.25
		}
		v := lo + (hi-lo)*frac
		if v <= lo || v >= hi {
			continue // no double strictly between: skip
		}
		if got := f.FromFloat64(v, RoundTowardNegative); got != b {
			t.Fatalf("rd(%g) between %g,%g = %#x want %#x", v, lo, hi, got, b)
		}
		if got := f.FromFloat64(v, RoundTowardPositive); got != b+1 {
			t.Fatalf("ru(%g) = %#x want %#x", v, got, b+1)
		}
		if got := f.FromFloat64(v, RoundTowardZero); got != b {
			t.Fatalf("rz(%g) = %#x want %#x", v, got, b)
		}
		want := b
		if want&1 == 0 {
			want = b + 1
		}
		if got := f.FromFloat64(v, RoundToOdd); got != want {
			t.Fatalf("ro(%g) = %#x want %#x", v, got, want)
		}
	}
}

func TestTiesToEvenAndAway(t *testing.T) {
	f := Bfloat16
	// 1.0 has bits with mantissa 0; next value is 1+2^-7. The midpoint
	// 1+2^-8 ties: rn → even (1.0), ra → away (1+2^-7).
	mid := 1 + math.Ldexp(1, -8)
	one := f.FromFloat64(1, RoundNearestEven)
	if got := f.FromFloat64(mid, RoundNearestEven); got != one {
		t.Errorf("rn tie: %#x want %#x", got, one)
	}
	if got := f.FromFloat64(mid, RoundNearestAway); got != one+1 {
		t.Errorf("ra tie: %#x want %#x", got, one+1)
	}
	// Negative tie.
	if got := f.FromFloat64(-mid, RoundNearestAway); got != f.signMask()|(one+1) {
		t.Errorf("ra neg tie: %#x", got)
	}
}

func TestOverflowPerMode(t *testing.T) {
	f := Bfloat16
	huge := f.MaxFiniteValue() * 2
	check := func(m Mode, v float64, want uint64) {
		t.Helper()
		if got := f.FromFloat64(v, m); got != want {
			t.Errorf("mode %v value %g: %#x want %#x", m, v, got, want)
		}
	}
	check(RoundNearestEven, huge, f.Inf(false))
	check(RoundNearestAway, huge, f.Inf(false))
	check(RoundTowardZero, huge, f.MaxFinite())
	check(RoundTowardPositive, huge, f.Inf(false))
	check(RoundTowardNegative, huge, f.MaxFinite())
	check(RoundToOdd, huge, f.MaxFinite())
	check(RoundNearestEven, -huge, f.Inf(true))
	check(RoundTowardPositive, -huge, f.signMask()|f.MaxFinite())
	check(RoundTowardNegative, -huge, f.Inf(true))
	check(RoundToOdd, -huge, f.signMask()|f.MaxFinite())

	// Just above maxFinite but below the rn overflow threshold stays finite
	// under rn.
	below := f.MaxFiniteValue() * (1 + math.Ldexp(1, -9))
	check(RoundNearestEven, below, f.MaxFinite())
}

func TestUnderflowPerMode(t *testing.T) {
	f := Bfloat16
	tiny := f.MinSubnormalValue() / 4
	check := func(m Mode, v float64, want uint64) {
		t.Helper()
		if got := f.FromFloat64(v, m); got != want {
			t.Errorf("mode %v value %g: %#x want %#x", m, v, got, want)
		}
	}
	check(RoundNearestEven, tiny, f.Zero(false))
	check(RoundTowardZero, tiny, f.Zero(false))
	check(RoundTowardPositive, tiny, f.MinSubnormal())
	check(RoundTowardNegative, tiny, f.Zero(false))
	// RO never flushes a nonzero value to zero: 0 has even mantissa.
	check(RoundToOdd, tiny, f.MinSubnormal())
	check(RoundToOdd, -tiny, f.signMask()|f.MinSubnormal())
	check(RoundTowardNegative, -tiny, f.signMask()|f.MinSubnormal())
	check(RoundTowardPositive, -tiny, f.Zero(true))
	// Exact midpoint between 0 and minSub.
	half := f.MinSubnormalValue() / 2
	check(RoundNearestEven, half, f.Zero(false))
	check(RoundNearestAway, half, f.MinSubnormal())
}

func TestNextUpDown(t *testing.T) {
	f := TensorFloat32
	if f.NextUp(f.Zero(false)) != f.MinSubnormal() {
		t.Error("NextUp(+0)")
	}
	if f.NextUp(f.Zero(true)) != f.MinSubnormal() {
		t.Error("NextUp(-0)")
	}
	if f.NextDown(f.Zero(false)) != f.signMask()|f.MinSubnormal() {
		t.Error("NextDown(+0)")
	}
	if f.NextUp(f.MaxFinite()) != f.Inf(false) {
		t.Error("NextUp(maxFinite)")
	}
	if f.NextUp(f.Inf(false)) != f.Inf(false) {
		t.Error("NextUp(+Inf)")
	}
	if f.NextDown(f.Inf(true)) != f.Inf(true) {
		t.Error("NextDown(-Inf)")
	}
	// Value ordering property on random finite bit patterns.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Int63()) & (f.NumValues() - 1)
		if f.IsNaN(b) || f.IsInf(b) {
			continue
		}
		v := f.Decode(b)
		up := f.Decode(f.NextUp(b))
		if !(up > v) && !(v == 0 && up > 0) {
			t.Fatalf("NextUp(%#x)=%g not above %g", b, up, v)
		}
		down := f.Decode(f.NextDown(b))
		if !(down < v) && !(v == 0 && down < 0) {
			t.Fatalf("NextDown(%#x)=%g not below %g", b, down, v)
		}
	}
}

func TestFromBigExtremes(t *testing.T) {
	f := Bfloat16
	huge := new(big.Float).SetPrec(64)
	huge.SetMantExp(big.NewFloat(1.5), 100000)
	if got := f.FromBig(huge, RoundNearestEven); got != f.Inf(false) {
		t.Errorf("huge: %#x", got)
	}
	if got := f.FromBig(huge, RoundTowardZero); got != f.MaxFinite() {
		t.Errorf("huge rz: %#x", got)
	}
	tiny := new(big.Float).SetPrec(64)
	tiny.SetMantExp(big.NewFloat(1.5), -100000)
	tiny.Neg(tiny)
	if got := f.FromBig(tiny, RoundToOdd); got != f.signMask()|f.MinSubnormal() {
		t.Errorf("tiny ro: %#x", got)
	}
	if got := f.FromBig(tiny, RoundNearestEven); got != f.Zero(true) {
		t.Errorf("tiny rn: %#x", got)
	}
	var zero big.Float
	zero.Neg(&zero)
	if got := f.FromBig(&zero, RoundNearestEven); got != f.Zero(true) {
		t.Errorf("-0: %#x", got)
	}
	inf := new(big.Float).SetInf(true)
	if got := f.FromBig(inf, RoundNearestEven); got != f.Inf(true) {
		t.Errorf("-Inf: %#x", got)
	}
}

// The RLibm-All theorem: rounding a real to F(n+2,E) with round-to-odd and
// then rounding that value to any format with k <= n bits (same exponent
// width) under any standard mode equals rounding the real directly.
func TestRoundToOddDoubleRoundingTheorem(t *testing.T) {
	base := MustFormat(14, 8) // largest target
	ext := base.Extend(2)     // round-to-odd format
	smaller := []Format{base, MustFormat(12, 8), MustFormat(11, 8)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120000; i++ {
		// Random real with rich low-order structure: a double scaled into
		// an interesting exponent range, plus occasional exact ties.
		var x *big.Float
		switch i % 4 {
		case 0:
			x = big.NewFloat(math.Ldexp(rng.Float64()+0.5, rng.Intn(290)-160))
		case 1: // exactly representable in ext
			b := uint64(rng.Int63()) & (ext.NumValues() - 1)
			if !ext.IsFinite(b) {
				continue
			}
			x = big.NewFloat(ext.Decode(b))
		case 2: // exact midpoint of a small format
			f := smaller[rng.Intn(len(smaller))]
			b := uint64(rng.Int63()) & (f.NumValues() - 1)
			if !f.IsFinite(b) || f.IsZero(b) || !f.IsFinite(f.NextUp(b)) {
				continue
			}
			x = big.NewFloat((f.Decode(b) + f.Decode(f.NextUp(b))) / 2)
		default:
			x = big.NewFloat(rng.NormFloat64())
		}
		if x.Sign() == 0 {
			continue
		}
		roBits := ext.FromBig(x, RoundToOdd)
		roVal := ext.Decode(roBits)
		for _, f := range smaller {
			for _, m := range StandardModes {
				direct := f.FromBig(x, m)
				via := f.FromFloat64(roVal, m)
				if direct != via {
					t.Fatalf("x=%v fmt=%v mode=%v: direct %#x via-RO %#x (ro=%#x %g)",
						x, f, m, direct, via, roBits, roVal)
				}
			}
		}
	}
}

// Round-to-odd composes downward: RO to p1 bits then RO to p2 <= p1-2 bits
// equals RO directly.
func TestRoundToOddComposes(t *testing.T) {
	big27 := MustFormat(27, 8)
	small := MustFormat(21, 8)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 60000; i++ {
		x := big.NewFloat(math.Ldexp(rng.Float64()+0.5, rng.Intn(280)-150))
		first := big27.Decode(big27.FromBig(x, RoundToOdd))
		via := small.FromFloat64(first, RoundToOdd)
		direct := small.FromBig(x, RoundToOdd)
		if via != direct {
			t.Fatalf("x=%v: via=%#x direct=%#x", x, via, direct)
		}
	}
}

func TestContains(t *testing.T) {
	if !Bfloat16.Contains(1.5) {
		t.Error("1.5 should be in bfloat16")
	}
	if Bfloat16.Contains(1 + math.Ldexp(1, -10)) {
		t.Error("1+2^-10 should not be in bfloat16")
	}
	if !Bfloat16.Contains(math.Inf(1)) || !Bfloat16.Contains(math.NaN()) {
		t.Error("specials should be contained")
	}
	if !TensorFloat32.Contains(Bfloat16.MaxFiniteValue()) {
		t.Error("bf16 max should be in tf32")
	}
}

func TestRoundDecoded(t *testing.T) {
	got := Bfloat16.RoundDecoded(1.0001, RoundNearestEven)
	if got != 1.0 {
		t.Errorf("RoundDecoded(1.0001) = %v", got)
	}
}
