package dd

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

func TestPrimitives(t *testing.T) {
	// twoSum exactness on random pairs.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := math.Ldexp(rng.Float64()*2-1, rng.Intn(60)-30)
		b := math.Ldexp(rng.Float64()*2-1, rng.Intn(60)-30)
		s, e := twoSum(a, b)
		// Verify exactly in big.
		want := new(big.Float).SetPrec(200).SetFloat64(a)
		want.Add(want, big.NewFloat(b))
		got := new(big.Float).SetPrec(200).SetFloat64(s)
		got.Add(got, big.NewFloat(e))
		if want.Cmp(got) != 0 {
			t.Fatalf("twoSum(%g,%g) inexact", a, b)
		}
		p, pe := twoProd(a, b)
		wantP := new(big.Float).SetPrec(200).SetFloat64(a)
		wantP.Mul(wantP, big.NewFloat(b))
		gotP := new(big.Float).SetPrec(200).SetFloat64(p)
		gotP.Add(gotP, big.NewFloat(pe))
		if wantP.Cmp(gotP) != 0 {
			t.Fatalf("twoProd(%g,%g) inexact", a, b)
		}
	}
}

// relErrExp returns log2 of the relative error of got vs the reference
// value (big), or -1000 when exact.
func relErrExp(got DD, ref *big.Float) float64 {
	g := new(big.Float).SetPrec(200).SetFloat64(got.Hi)
	g.Add(g, big.NewFloat(got.Lo))
	diff := new(big.Float).SetPrec(200).Sub(g, ref)
	if diff.Sign() == 0 {
		return -1000
	}
	if ref.Sign() == 0 {
		return 1000
	}
	q := new(big.Float).SetPrec(64).Quo(diff, ref)
	f, _ := q.Float64()
	return math.Log2(math.Abs(f))
}

// worstRelErr returns log2 of the worst relative error of Eval(fn, ·) over
// xs against a 200-bit reference, and the input attaining it. It skips the
// inputs whose result lies outside [MinResult, MaxResult] in magnitude —
// specials, exact zeros, saturated proxies and deep underflow — the same
// results the oracle's first step declines.
func worstRelErr(fn bigmath.Func, xs []float64) (worst, worstX float64) {
	worst = -1000
	for _, x := range xs {
		got := Eval(fn, x)
		if a := math.Abs(got.Hi); !(a >= MinResult && a <= MaxResult) {
			continue
		}
		if e := relErrExp(got, bigmath.Eval(fn, x, 200)); e > worst {
			worst, worstX = e, x
		}
	}
	return worst, worstX
}

// TestKernelAccuracy backs RelErrBound, the envelope the oracle's
// double-double first step rounds: every kernel's worst relative error
// over every bfloat16 (F16,8) input plus 2^14 random tensorfloat32 and
// 3000 random wide-range double inputs must stay below RelErrBound/8, and
// below the kernels' own 2^-58 design bound, whichever is tighter.
func TestKernelAccuracy(t *testing.T) {
	var sweep []float64
	for b := uint64(0); b < fp.Bfloat16.NumValues(); b++ {
		if x := fp.Bfloat16.Decode(b); !math.IsNaN(x) && !math.IsInf(x, 0) {
			sweep = append(sweep, x)
		}
	}
	bound := math.Min(-58, math.Log2(RelErrBound/8))
	for _, fn := range bigmath.AllFuncs {
		t.Run(fn.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(2 + int64(fn)))
			tf32 := fp.TensorFloat32
			xs := append([]float64(nil), sweep...)
			for len(xs) < len(sweep)+1<<14 {
				if x := tf32.Decode(uint64(rng.Int63()) & (tf32.NumValues() - 1)); !math.IsNaN(x) && !math.IsInf(x, 0) {
					xs = append(xs, x)
				}
			}
			for i := 0; i < 3000; i++ {
				xs = append(xs, wideInput(fn, rng))
			}
			worst, worstX := worstRelErr(fn, xs)
			t.Logf("worst relative error 2^%.1f at x=%g", worst, worstX)
			if worst > bound {
				t.Errorf("worst relative error 2^%.1f at x=%g exceeds 2^%.0f", worst, worstX, bound)
			}
		})
	}
}

// wideInput draws a random double across fn's whole finite-result domain.
func wideInput(fn bigmath.Func, rng *rand.Rand) float64 {
	sym := func(r float64) float64 { return (rng.Float64()*2 - 1) * r }
	switch fn {
	case bigmath.Exp, bigmath.Sinh, bigmath.Cosh:
		return sym(700)
	case bigmath.Exp10:
		return sym(300)
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		return math.Ldexp(rng.Float64()+0.5, rng.Intn(600)-300)
	}
	return sym(1000) // exp2, sinpi, cospi
}

// Targeted corners: near 1 for logs (cancellation), tiny/crossover sinh,
// near extrema for trig.
func TestKernelCorners(t *testing.T) {
	check := func(fn bigmath.Func, x float64, bound float64) {
		got := Eval(fn, x)
		if got.Hi == 0 || math.IsInf(got.Hi, 0) || math.IsNaN(got.Hi) {
			return
		}
		ref := bigmath.Eval(fn, x, 200)
		if e := relErrExp(got, ref); e > bound {
			t.Errorf("%v(%g): relative error 2^%.1f > 2^%.0f", fn, x, e, bound)
		}
	}
	eps := math.Ldexp(1, -40)
	for _, fn := range []bigmath.Func{bigmath.Ln, bigmath.Log2, bigmath.Log10} {
		check(fn, 1+eps, -57)
		check(fn, 1-eps, -57)
		check(fn, 1+1.0/129, -57)
		check(fn, 0.75, -57)
		check(fn, 1.5-1e-10, -57)
	}
	for _, x := range []float64{0.1249, 0.1251, 1e-8, 0.49, 0.51, 1, 90} {
		check(bigmath.Sinh, x, -57)
		check(bigmath.Sinh, -x, -57)
		check(bigmath.Cosh, x, -57)
	}
	for _, x := range []float64{0.4999, 0.2500001, 1.0000001, 0.0001, 31.499999} {
		check(bigmath.SinPi, x, -56)
		check(bigmath.CosPi, x, -56)
	}
	for _, x := range []float64{1e-9, -1e-9, 0.0108, -0.0108, 700, -700} {
		check(bigmath.Exp, x, -57)
	}
}

func TestSpecials(t *testing.T) {
	if v := Eval(bigmath.Exp, math.Inf(1)); !math.IsInf(v.Hi, 1) {
		t.Error("exp(+Inf)")
	}
	if v := Eval(bigmath.Exp, math.Inf(-1)); v.Hi != 0 {
		t.Error("exp(-Inf)")
	}
	if v := Eval(bigmath.Ln, -1); !math.IsNaN(v.Hi) {
		t.Error("ln(-1)")
	}
	if v := Eval(bigmath.Ln, 0); !math.IsInf(v.Hi, -1) {
		t.Error("ln(0)")
	}
	if v := Eval(bigmath.SinPi, math.Inf(1)); !math.IsNaN(v.Hi) {
		t.Error("sinpi(Inf)")
	}
	if v := Eval(bigmath.SinPi, -3); v.Hi != 0 || !math.Signbit(v.Hi) {
		t.Error("sinpi(-3) should be -0")
	}
	if v := Eval(bigmath.Cosh, math.Inf(-1)); !math.IsInf(v.Hi, 1) {
		t.Error("cosh(-Inf)")
	}
	if v := Eval(bigmath.Exp, 800); v.Hi != math.MaxFloat64 {
		t.Error("exp overflow should return the saturated sticky proxy")
	}
	if v := Eval(bigmath.Exp, -800); v.Hi != math.SmallestNonzeroFloat64 {
		t.Error("exp underflow should return the sticky proxy")
	}
	if v := Eval(bigmath.Sinh, math.Copysign(0, -1)); v.Hi != 0 || !math.Signbit(v.Hi) {
		t.Error("sinh(-0)")
	}
	if v := Eval(bigmath.Log2, 1); v.Hi != 0 || v.Lo != 0 {
		t.Error("log2(1) should be exactly 0")
	}
	if v := Eval(bigmath.Exp, math.NaN()); !math.IsNaN(v.Hi) {
		t.Error("exp(NaN)")
	}
}

func BenchmarkDD(b *testing.B) {
	for _, fn := range []bigmath.Func{bigmath.Exp, bigmath.Ln, bigmath.SinPi, bigmath.Sinh} {
		b.Run(fn.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			xs := make([]float64, 1024)
			for i := range xs {
				xs[i] = rng.Float64()*20 + 0.1
			}
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += Eval(fn, xs[i&1023]).Hi
			}
			_ = sink
		})
	}
}

func TestExactGridValues(t *testing.T) {
	cases := []struct {
		fn   bigmath.Func
		x    float64
		want float64
	}{
		{bigmath.SinPi, 0.5, 1}, {bigmath.SinPi, -0.5, -1},
		{bigmath.SinPi, 1.5, -1}, {bigmath.SinPi, -1.5, 1},
		{bigmath.SinPi, 3.5, -1}, {bigmath.SinPi, 2.5, 1},
		{bigmath.CosPi, 0, 1}, {bigmath.CosPi, 1, -1},
		{bigmath.CosPi, -3, -1}, {bigmath.CosPi, 0.5, 0},
	}
	for _, c := range cases {
		got := Eval(c.fn, c.x).Value()
		if got != c.want {
			t.Errorf("%v(%v) = %v, want %v", c.fn, c.x, got, c.want)
		}
	}
}
