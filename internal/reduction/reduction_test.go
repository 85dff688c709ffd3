package reduction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/poly"
)

func TestTables(t *testing.T) {
	if recipF[0] != 1 || lnF[0] != 0 || log2F[0] != 0 {
		t.Error("j=0 table entries")
	}
	if log2F[64] != bigToDouble(bigmath.Log2, 1.5) {
		t.Error("log2F[64]")
	}
	if exp2J[32] != math.Sqrt2 {
		t.Errorf("2^(1/2) table entry: %v", exp2J[32])
	}
	if sinPiI[32] != 1 || cosPiI[32] != 0 || sinPiI[16] != cosPiI[16] {
		t.Error("trig table symmetry")
	}
	if ln2Over64Hi+ln2Over64Lo == 0 || math.Abs(ln2Over64Hi*64-math.Ln2) > 1e-9 {
		t.Error("ln2/64 split")
	}
	for _, f := range bigmath.AllFuncs {
		if TableBytes(f) <= 0 {
			t.Errorf("TableBytes(%v) = %d", f, TableBytes(f))
		}
	}
}

// The fidelity property: for every regular input, compensating the *exact*
// kernel values must reproduce the correctly rounded result. This is the
// end-to-end check that reduction + tables + compensation lose less than
// the rounding interval's freedom.
func TestReduceCompensateFidelity(t *testing.T) {
	in := fp.Bfloat16
	out := in.Extend(2) // the round-to-odd target F18,8
	rng := rand.New(rand.NewSource(70))
	const prec = 120
	for _, fn := range bigmath.AllFuncs {
		s := Lower(fn)
		o := oracle.New(fn)
		checked := 0
		for trial := 0; trial < 4000; trial++ {
			b := uint64(rng.Int63()) & (in.NumValues() - 1)
			x := in.Decode(b)
			ctx, regular := s.Reduce(x)
			if !regular {
				continue
			}
			checked++
			lo, hi := s.ReducedDomain()
			if ctx.R < lo || ctx.R > hi {
				t.Fatalf("%v(%g): reduced input %g outside [%g,%g]", fn, x, ctx.R, lo, hi)
			}
			// Exact kernel values.
			var y0, y1 float64
			if s.NumPolys() == 2 {
				k0, k1 := s.Kernels(ctx.R, prec)
				y0, _ = k0.Float64()
				y1, _ = k1.Float64()
			} else {
				y0 = kernelRef(fn, ctx.R)
			}
			got := s.Compensate(ctx, y0, y1)
			// got must fall inside the rounding interval of the correctly
			// rounded round-to-odd result (the freedom the polynomial will
			// inherit).
			want := o.Result(x, out, fp.RoundToOdd)
			iv, ok := interval.Rounding(out, want, fp.RoundToOdd)
			if !ok {
				continue // zero results etc. — handled as specials upstream
			}
			if !iv.Contains(got) {
				t.Fatalf("%v(%g): compensated %g outside interval %v (want bits %#x = %g)",
					fn, x, got, iv, want, out.Decode(want))
			}
		}
		if checked < 250 {
			t.Errorf("%v: only %d regular inputs checked", fn, checked)
		}
	}
}

// kernelRef returns a high-accuracy double of the kernel the single-poly
// schemes approximate.
func kernelRef(fn bigmath.Func, r float64) float64 {
	switch fn {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		// log(1+r): 1+r is not exact in double, so go through big.
		v := bigmath.Eval(fn, 1+r, 100)
		f, _ := v.Float64()
		// correction for the rounding of 1+r: negligible vs interval widths
		// at bfloat16 scale.
		return f
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		v := bigmath.Eval(fn, r, 100)
		f, _ := v.Float64()
		return f
	}
	panic("not single-poly")
}

// Special-path results must round to the oracle's answer for every mode.
func TestSpecialPathAgreesWithOracle(t *testing.T) {
	in := fp.Bfloat16
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 2.5, -0.5, 3, 200, -200, 100.5, 1e30, -1e30,
		in.MinSubnormalValue(), -in.MinSubnormalValue(),
	}
	for _, fn := range bigmath.AllFuncs {
		s := Lower(fn)
		o := oracle.New(fn)
		for _, x := range specials {
			if _, regular := s.Reduce(x); regular {
				continue
			}
			proxy := s.Special(x)
			for _, m := range fp.AllModes {
				got := in.FromFloat64(proxy, m)
				want := o.Result(x, in, m)
				if got != want {
					t.Errorf("%v(%g) mode %v: special path %#x, oracle %#x (proxy %g)",
						fn, x, m, got, want, proxy)
				}
			}
		}
	}
}

// Reduction exactness claims: r must be reproducible from higher-precision
// recomputation for the schemes that promise exact steps.
func TestExactReductionSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sp := Lower(bigmath.SinPi)
	for i := 0; i < 20000; i++ {
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(40)-10)
		if 2*x == math.Trunc(2*x) {
			continue
		}
		ctx, ok := sp.Reduce(x)
		if !ok {
			continue
		}
		// Reconstruct w from the tables: sinπ(x) must equal
		// Sign·(A·cosπ(r)+B·sinπ(r)); spot-check the identity numerically.
		want := math.Sin(math.Pi * math.Mod(x, 2))
		got := ctx.Sign * (ctx.A*math.Cos(math.Pi*ctx.R) + ctx.B*math.Sin(math.Pi*ctx.R))
		// The reference itself carries ~π·z·2^-53 ≈ 1e-15 of absolute error.
		if math.Abs(got-want) > 1e-14+1e-12*math.Abs(want) {
			t.Fatalf("sinpi fold identity broken at x=%g: got %g want %g", x, got, want)
		}
	}
	// exp2 reduction is exact: x = N/64 + r.
	e2 := Lower(bigmath.Exp2)
	for i := 0; i < 20000; i++ {
		x := (rng.Float64()*2 - 1) * 120
		ctx, ok := e2.Reduce(x)
		if !ok {
			continue
		}
		n := math.Round(x * 64)
		if ctx.R != x-n/64 {
			t.Fatalf("exp2 reduction inexact at %g", x)
		}
		if math.Abs(ctx.R) > 1.0/128 {
			t.Fatalf("exp2 reduced input %g out of range", ctx.R)
		}
	}
}

func TestInvertMonotone(t *testing.T) {
	s := Lower(bigmath.Log2)
	rng := rand.New(rand.NewSource(72))
	out := fp.MustFormat(21, 8)
	o := oracle.New(bigmath.Log2)
	count := 0
	for i := 0; i < 3000; i++ {
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(100)-50)
		ctx, ok := s.Reduce(x)
		if !ok {
			continue
		}
		bits := o.Result(x, out, fp.RoundToOdd)
		iv, ok := interval.Rounding(out, bits, fp.RoundToOdd)
		if !ok {
			continue
		}
		yiv, ok := InvertMonotone(s, ctx, iv)
		if !ok {
			continue // vanishingly rare: no double output lands inside
		}
		count++
		// Definitional checks: endpoints and midpoint compensate into iv;
		// just outside does not.
		for _, y := range []float64{yiv.Lo, yiv.Hi, yiv.Lo + (yiv.Hi-yiv.Lo)/2} {
			if v := s.Compensate(ctx, y, 0); !iv.Contains(v) {
				t.Fatalf("x=%g: y=%g compensates to %g outside %v", x, y, v, iv)
			}
		}
		below := math.Nextafter(yiv.Lo, math.Inf(-1))
		if v := s.Compensate(ctx, below, 0); iv.Contains(v) {
			t.Fatalf("x=%g: yLo not minimal", x)
		}
		above := math.Nextafter(yiv.Hi, math.Inf(1))
		if v := s.Compensate(ctx, above, 0); iv.Contains(v) {
			t.Fatalf("x=%g: yHi not maximal", x)
		}
	}
	if count < 2000 {
		t.Errorf("only %d inversions exercised", count)
	}
}

func TestSplitAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	out := fp.MustFormat(21, 8)
	for _, fn := range []bigmath.Func{bigmath.Sinh, bigmath.Cosh, bigmath.SinPi, bigmath.CosPi} {
		s := Lower(fn)
		o := oracle.New(fn)
		count := 0
		for i := 0; i < 2000; i++ {
			x := (rng.Float64()*2 - 1) * 4
			ctx, ok := s.Reduce(x)
			if !ok {
				continue
			}
			bits := o.Result(x, out, fp.RoundToOdd)
			iv, ok := interval.Rounding(out, bits, fp.RoundToOdd)
			if !ok {
				continue
			}
			k0, k1 := s.Kernels(ctx.R, 160)
			i0, i1, ok := SplitAffine(ctx, k0, k1, iv)
			if !ok {
				continue
			}
			count++
			// Any corner of the box must compensate into iv.
			for _, y0 := range []float64{i0.Lo, i0.Hi} {
				for _, y1 := range []float64{i1.Lo, i1.Hi} {
					if math.Abs(y0) == math.MaxFloat64 || math.Abs(y1) == math.MaxFloat64 {
						continue
					}
					if v := s.Compensate(ctx, y0, y1); !iv.Contains(v) {
						t.Fatalf("%v(%g): corner (%g,%g) → %g outside %v",
							fn, x, y0, y1, v, iv)
					}
				}
			}
		}
		if count < 1000 {
			t.Errorf("%v: only %d splits exercised", fn, count)
		}
	}
}

func TestStructures(t *testing.T) {
	for _, fn := range bigmath.AllFuncs {
		s := Lower(fn)
		switch s.NumPolys() {
		case 1:
			if s.Structure(0) != poly.Dense {
				t.Errorf("%v: want dense", fn)
			}
		case 2:
			if s.Structure(0) != poly.Even || s.Structure(1) != poly.Odd {
				t.Errorf("%v: want even/odd kernels", fn)
			}
		}
		if s.Func() != fn {
			t.Errorf("Func() mismatch for %v", fn)
		}
	}
}
