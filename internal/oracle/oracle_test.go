package oracle

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// Exhaustive cross-validation against the unaccelerated bigmath oracle on a
// format with the full exponent range, in every mode: every accelerated
// path must agree bit-for-bit with the reference on every input.
func TestResultMatchesReferenceExhaustive(t *testing.T) {
	in := fp.MustFormat(14, 8)
	out := in.Extend(2)
	for _, fn := range bigmath.AllFuncs {
		t.Run(fn.String(), func(t *testing.T) {
			t.Parallel()
			o := New(fn)
			for b := uint64(0); b < in.NumValues(); b++ {
				x := in.Decode(b)
				for _, mode := range fp.AllModes {
					got := o.Result(x, out, mode)
					want := bigmath.CorrectlyRounded(fn, x, out, mode)
					if got != want {
						t.Fatalf("%v(%g) [in bits %#x] mode %v: got %#x want %#x",
							fn, x, b, mode, got, want)
					}
				}
			}
			s := o.Stats()
			if s.Total() != in.NumValues()*uint64(len(fp.AllModes)) {
				t.Errorf("stats total %d != queries %d", s.Total(), in.NumValues()*uint64(len(fp.AllModes)))
			}
		})
	}
}

// Random cross-validation on the paper's actual formats.
func TestResultMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	formats := []fp.Format{fp.Bfloat16, fp.TensorFloat32}
	for _, fn := range bigmath.AllFuncs {
		o := New(fn)
		for _, in := range formats {
			out := in.Extend(2)
			for i := 0; i < 400; i++ {
				b := uint64(rng.Int63()) & (in.NumValues() - 1)
				x := in.Decode(b)
				mode := fp.AllModes[rng.Intn(len(fp.AllModes))]
				got := o.Result(x, out, mode)
				want := bigmath.CorrectlyRounded(fn, x, out, mode)
				if got != want {
					t.Fatalf("%v(%g) %v mode %v: got %#x want %#x", fn, x, in, mode, got, want)
				}
			}
		}
	}
}

// The shortcut paths and the double-double first step must actually fire
// on their target regions.
func TestAccelerationPathsFire(t *testing.T) {
	out := fp.MustFormat(27, 8)

	o := New(bigmath.Exp)
	o.Result(math.Ldexp(1, -40), out, fp.RoundToOdd) // anchor
	o.Result(500, out, fp.RoundNearestEven)          // overflow clamp
	o.Result(-500, out, fp.RoundNearestEven)         // underflow clamp
	o.Result(0, out, fp.RoundNearestEven)            // exact
	o.Result(math.Inf(1), out, fp.RoundNearestEven)  // special
	o.Result(1.5, out, fp.RoundNearestEven)          // dd first step
	s := o.Stats()
	if s.Anchors != 1 || s.Clamps != 2 || s.Exacts != 1 || s.Specials != 1 || s.DD != 1 || s.FullEvals != 0 {
		t.Errorf("exp stats: %+v", s)
	}

	ol := New(bigmath.Ln)
	ol.Result(1.5, out, fp.RoundToOdd)
	ol.Result(3.0, out, fp.RoundToOdd)
	if s := ol.Stats(); s.DD != 2 || s.Shared != 0 || ol.logCache.size() != 0 {
		t.Errorf("ln stats: %+v cache=%d", s, ol.logCache.size())
	}

	ot := New(bigmath.SinPi)
	ot.Result(0.3125, out, fp.RoundToOdd)
	ot.Result(2.3125, out, fp.RoundToOdd)
	ot.Result(-0.3125, out, fp.RoundToOdd)
	if s := ot.Stats(); s.DD != 3 || s.Shared != 0 || ot.trigCache.size() != 0 {
		t.Errorf("sinpi stats: %+v cache=%d", s, ot.trigCache.size())
	}
}

// TestDDStraddleFallsThrough searches a wide output format for inputs whose
// dd envelope straddles a rounding boundary, where the first step must
// decline and the slower paths answer: the identity-sharing caches for ln
// and sinπ, the full Ziv loop for exp. Random inputs almost never straddle
// at 2^-50, so the candidates sit just off the output's representable
// values and midpoints: e^x ≈ 1 + x + x²/2 for x a multiple of 2^-(p+1),
// ln(1 + j·2^-50) ≈ j·2^-50, sinπ(½ − j·2^-30) ≈ 1 − 4.9·j²·2^-60.
func TestDDStraddleFallsThrough(t *testing.T) {
	out := fp.MustFormat(34, 8)
	p := out.MantBits()
	cands := map[bigmath.Func][]float64{}
	for j := 1; j <= 8; j++ {
		d := float64(j)
		cands[bigmath.Exp] = append(cands[bigmath.Exp], math.Ldexp(d, -(p+1)), math.Ldexp(-d, -(p+1)))
		cands[bigmath.Ln] = append(cands[bigmath.Ln], 1+math.Ldexp(d, -50), 1-math.Ldexp(d, -51))
		cands[bigmath.SinPi] = append(cands[bigmath.SinPi], 0.5-math.Ldexp(d, -30), -0.5+math.Ldexp(d, -30))
	}
	for _, fn := range []bigmath.Func{bigmath.Exp, bigmath.Ln, bigmath.SinPi} {
		o := New(fn)
		straddles := uint64(0)
		for _, x := range cands[fn] {
			for _, mode := range fp.AllModes {
				if _, ok := o.ddFirstStep(x, out, mode); !ok {
					straddles++
				}
				got := o.Result(x, out, mode)
				if want := bigmath.CorrectlyRounded(fn, x, out, mode); got != want {
					t.Errorf("%v(%g) %v: got %#x want %#x", fn, x, mode, got, want)
				}
			}
		}
		s := o.Stats()
		slow := s.FullEvals
		if fn != bigmath.Exp {
			slow = s.Shared
		}
		if straddles == 0 || slow != straddles || s.DD+slow != s.Total() {
			t.Errorf("%v: %d straddling queries, stats %+v", fn, straddles, s)
		}
	}
}

// A cached value too close to a boundary for its own 160-bit envelope
// escalates to the Ziv loop. cosπ of a tiny x is the natural case: 1 − δ
// with δ ≈ 2^-138 straddles 1, the boundary of every directed mode (the
// nearest modes round it to 1 from the cache). The anchor shortcut answers
// it in Result, so drive the cache path directly.
func TestSharedEscalatesToZiv(t *testing.T) {
	out := fp.MustFormat(34, 8)
	x := math.Ldexp(1, -70)
	o := New(bigmath.CosPi)
	for _, mode := range fp.AllModes {
		got := o.trigShared(x, out, mode)
		if want := bigmath.CorrectlyRounded(bigmath.CosPi, x, out, mode); got != want {
			t.Errorf("cospi(2^-70) %v: got %#x want %#x", mode, got, want)
		}
	}
	if s := o.Stats(); s.Shared != 2 || s.Ambiguous != uint64(len(fp.AllModes))-2 || s.FullEvals != s.Ambiguous {
		t.Errorf("cospi(2^-70) via the cache: stats %+v, want the directed modes escalated", s)
	}
}

// Anchor shortcut edge: results adjacent to 1 must respect every mode,
// including round-to-odd parity on both sides of 1.
func TestJustAside(t *testing.T) {
	out := fp.Bfloat16
	one := out.FromFloat64(1, fp.RoundNearestEven)
	up, down := out.NextUp(one), out.NextDown(one)

	o := New(bigmath.Exp)
	tiny := math.Ldexp(1, -30)
	cases := []struct {
		x    float64
		mode fp.Mode
		want uint64
	}{
		{tiny, fp.RoundNearestEven, one},
		{tiny, fp.RoundTowardZero, one},
		{tiny, fp.RoundTowardPositive, up},
		{tiny, fp.RoundTowardNegative, one},
		{tiny, fp.RoundToOdd, up}, // 1.0 even, next odd
		{-tiny, fp.RoundNearestEven, one},
		{-tiny, fp.RoundTowardZero, down},
		{-tiny, fp.RoundTowardPositive, one},
		{-tiny, fp.RoundTowardNegative, down},
		{-tiny, fp.RoundToOdd, down}, // below 1: mantissa all ones, odd
	}
	for _, c := range cases {
		if got := o.Result(c.x, out, c.mode); got != c.want {
			t.Errorf("exp(%g) %v: got %#x want %#x", c.x, c.mode, got, c.want)
		}
		// Must agree with the reference too.
		if want := bigmath.CorrectlyRounded(bigmath.Exp, c.x, out, c.mode); want != c.want {
			t.Errorf("reference disagrees for exp(%g) %v: %#x vs %#x", c.x, c.mode, want, c.want)
		}
	}
}

// sinh's anchor is the input itself: exercise it near the subnormal floor
// where the neighbour arithmetic touches zero.
func TestSinhAnchorSubnormals(t *testing.T) {
	out := fp.Bfloat16
	x := out.MinSubnormalValue()
	o := New(bigmath.Sinh)
	for _, mode := range fp.AllModes {
		got := o.Result(x, out, mode)
		want := bigmath.CorrectlyRounded(bigmath.Sinh, x, out, mode)
		if got != want {
			t.Errorf("sinh(minSub) %v: got %#x want %#x", mode, got, want)
		}
	}
	if o.Stats().Anchors == 0 {
		t.Error("anchor path did not fire for sinh(minSub)")
	}
}

// cosπ's anchor is 1 from below: every mode must land on 1 or its lower
// neighbour, round-to-odd on the odd one of the pair around the result
// (the all-ones mantissa below 1, never the even 1 above), and the
// subnormal inputs of tensorfloat32 must agree with the reference.
func TestCosPiAnchor(t *testing.T) {
	out := fp.Bfloat16
	one := out.FromFloat64(1, fp.RoundNearestEven)
	down := out.NextDown(one)
	if !out.OddMantissa(down) || out.OddMantissa(one) {
		t.Fatalf("parity premise: below-1 %#x should be odd, 1 %#x even", down, one)
	}
	want := map[fp.Mode]uint64{
		fp.RoundNearestEven: one, fp.RoundNearestAway: one, fp.RoundTowardPositive: one,
		fp.RoundTowardZero: down, fp.RoundTowardNegative: down, fp.RoundToOdd: down,
	}
	o := New(bigmath.CosPi)
	tiny := math.Ldexp(1, -30)
	for _, x := range []float64{tiny, -tiny} {
		for _, mode := range fp.AllModes {
			if got := o.Result(x, out, mode); got != want[mode] {
				t.Errorf("cospi(%g) %v: got %#x want %#x", x, mode, got, want[mode])
			}
			if ref := bigmath.CorrectlyRounded(bigmath.CosPi, x, out, mode); ref != want[mode] {
				t.Errorf("reference disagrees for cospi(%g) %v: %#x vs %#x", x, mode, ref, want[mode])
			}
		}
	}

	tf := fp.TensorFloat32
	subs := []float64{tf.MinSubnormalValue(), -tf.MinSubnormalValue(), tf.Decode(1<<tf.MantBits() - 1)}
	for _, of := range []fp.Format{tf, tf.Extend(2)} {
		for _, x := range subs {
			for _, mode := range fp.AllModes {
				got := o.Result(x, of, mode)
				if ref := bigmath.CorrectlyRounded(bigmath.CosPi, x, of, mode); got != ref {
					t.Errorf("cospi(%g) into %v %v: got %#x want %#x", x, of, mode, got, ref)
				}
			}
		}
	}
	if s := o.Stats(); s.Anchors != s.Total() {
		t.Errorf("anchor path did not answer every tiny-x query: %+v", s)
	}
}

// Concurrent queries against one shared oracle: under -race this covers the
// striped caches and the atomic stats counters; in any mode it checks that
// concurrent answers match the serial reference and that no query is lost
// from the counters.
func TestConcurrentResultRaceFree(t *testing.T) {
	in := fp.MustFormat(11, 8)
	out := in.Extend(2)
	for _, fn := range []bigmath.Func{bigmath.Ln, bigmath.SinPi, bigmath.Exp} {
		o := New(fn)
		const workers = 4
		nvals := in.NumValues()
		got := make([]uint64, nvals)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := uint64(w); b < nvals; b += workers {
					got[b] = o.Result(in.Decode(b), out, fp.RoundToOdd)
				}
			}(w)
		}
		wg.Wait()
		ref := New(fn)
		for b := uint64(0); b < nvals; b++ {
			if want := ref.Result(in.Decode(b), out, fp.RoundToOdd); got[b] != want {
				t.Fatalf("%v: concurrent result for bits %#x = %#x, serial %#x", fn, b, got[b], want)
			}
		}
		if s := o.Stats(); s.Total() != nvals {
			t.Errorf("%v: stats total %d != %d queries", fn, s.Total(), nvals)
		}
	}
}

func BenchmarkOracleResult(b *testing.B) {
	out := fp.MustFormat(27, 8)
	benches := []struct {
		name string
		fn   bigmath.Func
		gen  func(*rand.Rand) float64
	}{
		{"ln-shared", bigmath.Ln, func(r *rand.Rand) float64 {
			return math.Ldexp(1+r.Float64(), r.Intn(200)-100)
		}},
		{"exp-core", bigmath.Exp, func(r *rand.Rand) float64 { return r.Float64()*170 - 85 }},
		{"sinpi-shared", bigmath.SinPi, func(r *rand.Rand) float64 { return r.Float64() * 4 }},
	}
	for _, bench := range benches {
		b.Run(bench.name, func(b *testing.B) {
			o := New(bench.fn)
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < b.N; i++ {
				o.Result(bench.gen(rng), out, fp.RoundToOdd)
			}
		})
	}
}
