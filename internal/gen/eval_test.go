package gen_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/reduction"
)

// TestPieceBoundaries pins the single piece-selection rule on the shipped
// RLibm-All ln baseline (hundreds of consecutive pieces): r = Lo_i selects
// piece i, the double just below Lo_i selects piece i-1, and the last piece
// owns every r at or above its Hi.
func TestPieceBoundaries(t *testing.T) {
	res, err := libm.RLibmAll(bigmath.Ln)
	if err != nil {
		t.Skip(err)
	}
	pieces := res.Kernels[0].Pieces
	if len(pieces) < 8 {
		t.Fatalf("ln baseline has %d pieces, want a many-piece table", len(pieces))
	}
	ev, err := res.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pieces {
		if got := ev.PieceOf(0, p.Lo); got != i {
			t.Errorf("r = Lo_%d = %x selects piece %d", i, p.Lo, got)
		}
		if i == 0 {
			continue
		}
		if pieces[i-1].Hi != p.Lo {
			t.Fatalf("pieces %d and %d are not consecutive: Hi %x, Lo %x", i-1, i, pieces[i-1].Hi, p.Lo)
		}
		if below := math.Nextafter(p.Lo, math.Inf(-1)); ev.PieceOf(0, below) != i-1 {
			t.Errorf("r = %x just below Lo_%d selects piece %d, want %d", below, i, ev.PieceOf(0, below), i-1)
		}
	}
	last := len(pieces) - 1
	hi := pieces[last].Hi
	for _, r := range []float64{hi, math.Nextafter(hi, math.Inf(1)), 2 * hi, math.MaxFloat64, math.Inf(1)} {
		if got := ev.PieceOf(0, r); got != last {
			t.Errorf("r = %x at or above the last Hi selects piece %d, want %d", r, got, last)
		}
	}
}

// TestSpecialTableHitsExactlyTheKeys: over every bfloat16 input, the
// evaluator takes a special path exactly when the reduction rejects the
// input or the level's special-input list holds it, and a listed input
// answers with its proxy bit for bit.
func TestSpecialTableHitsExactlyTheKeys(t *testing.T) {
	f := fp.Bfloat16
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.Progressive(fn)
		if err != nil {
			t.Skip(err)
		}
		red := reduction.Lower(fn)
		for li := range res.Levels {
			ev, err := res.Compile(li)
			if err != nil {
				t.Fatal(err)
			}
			proxies := make(map[uint64]float64)
			for _, s := range res.Specials[li] {
				proxies[math.Float64bits(s.X)] = s.Proxy
			}
			for b := uint64(0); b < f.NumValues(); b++ {
				x := f.Decode(b)
				v, special := ev.ValuePath(x)
				_, regular := red.Reduce(x)
				proxy, listed := proxies[math.Float64bits(x)]
				if special != (!regular || listed) {
					t.Fatalf("%v level %d input %x: special %v, regular %v, listed %v", fn, li, x, special, regular, listed)
				}
				if regular && listed && math.Float64bits(v) != math.Float64bits(proxy) {
					t.Fatalf("%v level %d input %x: %x, proxy %x", fn, li, x, v, proxy)
				}
			}
		}
	}
}

// TestValueZeroAllocs keeps the evaluator allocation-free on the
// polynomial path, the table path and the reduction's cheap special path.
func TestValueZeroAllocs(t *testing.T) {
	for _, fn := range []bigmath.Func{bigmath.Exp2, bigmath.SinPi} {
		res, err := libm.Progressive(fn)
		if err != nil {
			t.Skip(err)
		}
		xs := []float64{0.7265625, -1.25, 3.3, math.NaN(), math.Inf(1), 0}
		for li := range res.Levels {
			for _, s := range res.Specials[li] {
				xs = append(xs, s.X)
			}
		}
		ev, err := res.Compile(len(res.Levels) - 1)
		if err != nil {
			t.Fatal(err)
		}
		var sink float64
		if n := testing.AllocsPerRun(100, func() {
			for _, x := range xs {
				sink += ev.Value(x)
			}
		}); n != 0 {
			t.Errorf("%v: Value allocates %v times per run", fn, n)
		}
	}
}

// TestCompileRejectsMalformed covers Compile's failure paths: each
// malformed table is refused with a diagnostic instead of evaluating
// garbage.
func TestCompileRejectsMalformed(t *testing.T) {
	shipped, err := libm.Progressive(bigmath.Exp2)
	if err != nil {
		t.Skip(err)
	}
	// clone deep-copies what the cases mutate.
	clone := func() *gen.Result {
		res := *shipped
		res.Kernels = append([]gen.KernelPoly(nil), shipped.Kernels...)
		res.Kernels[0].Pieces = append([]gen.Piece(nil), shipped.Kernels[0].Pieces...)
		res.Specials = append([][]gen.SpecialInput(nil), shipped.Specials...)
		return &res
	}
	cases := []struct {
		name, want string
		mutate     func(*gen.Result)
		li         int
	}{
		{"level below range", "out of range", func(*gen.Result) {}, -1},
		{"level above range", "out of range", func(*gen.Result) {}, len(shipped.Levels)},
		{"kernel count", "kernel polynomials", func(r *gen.Result) { r.Kernels = append(r.Kernels, r.Kernels[0]) }, 0},
		{"structure", "unsupported structure", func(r *gen.Result) { r.Kernels[0].Structure.Stride = 3 }, 0},
		{"no pieces", "no pieces", func(r *gen.Result) { r.Kernels[0].Pieces = nil }, 0},
		{"term counts", "level term counts", func(r *gen.Result) { r.Kernels[0].Pieces[0].LevelTerms = nil }, 0},
		{"special tables", "no special-input table", func(r *gen.Result) { r.Specials = nil }, 0},
		{"special key", "not a regular input", func(r *gen.Result) { r.Specials[0] = []gen.SpecialInput{{X: math.Inf(1)}} }, 0},
	}
	for _, c := range cases {
		res := clone()
		c.mutate(res)
		if _, err := res.Compile(c.li); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Compile error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := clone().Compile(0); err != nil {
		t.Fatalf("unmodified clone: %v", err)
	}
}
