package gen

import (
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
)

// Small end-to-end run: every function, two small levels, exhaustive
// correctness via the eval path (the full verify package adds repair; here
// generation alone must already be near-perfect).
func TestGenerateSmallEndToEnd(t *testing.T) {
	levels := []fp.Format{fp.MustFormat(12, 8), fp.MustFormat(14, 8)}
	for _, fn := range bigmath.AllFuncs {
		fn := fn
		t.Run(fn.String(), func(t *testing.T) {
			res, err := Generate(fn, Options{Levels: levels, Seed: 7})
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			if len(res.Kernels) == 0 || len(res.Kernels[0].Pieces) == 0 {
				t.Fatal("no polynomial generated")
			}
			// Structural invariants.
			for _, k := range res.Kernels {
				for _, p := range k.Pieces {
					if p.LevelTerms[len(levels)-1] != len(p.Coeffs) {
						t.Errorf("last level terms %d != coeff count %d",
							p.LevelTerms[len(levels)-1], len(p.Coeffs))
					}
					for li := 1; li < len(levels); li++ {
						if p.LevelTerms[li-1] > p.LevelTerms[li] {
							t.Errorf("non-monotone terms: %v", p.LevelTerms)
						}
					}
				}
			}
			// Exhaustive correctness per level (rn for the lower level, all
			// standard modes for the largest, as the paper promises).
			for li, lvl := range levels {
				modes := []fp.Mode{fp.RoundNearestEven}
				if li == len(levels)-1 {
					modes = fp.StandardModes
				}
				ext := lvl.Extend(2)
				ev, err := res.Compile(li)
				if err != nil {
					t.Fatal(err)
				}
				wrong := 0
				var firstBad uint64
				for b := uint64(0); b < lvl.NumValues(); b++ {
					x := lvl.Decode(b)
					roVal := ext.Decode(oracleResult(fn, x, ext))
					v := ev.Value(x)
					for _, m := range modes {
						want := lvl.FromFloat64(roVal, m)
						got := lvl.FromFloat64(v, m)
						if got != want {
							if wrong == 0 {
								firstBad = b
							}
							wrong++
						}
					}
				}
				if wrong > 0 {
					x := lvl.Decode(firstBad)
					t.Errorf("level %v: %d wrong results (first at bits %#x = %g)",
						lvl, wrong, firstBad, x)
				}
			}
			t.Logf("%v: pieces=%v terms(last)=%v specials=%v coeffBytes=%d iters=%d",
				fn, res.NumPieces(), res.TermsAt(len(levels)-1), res.NumSpecials(),
				res.CoefficientBytes(), res.Stats.Iters)
		})
	}
}

func oracleResult(fn bigmath.Func, x float64, ext fp.Format) uint64 {
	return bigmath.CorrectlyRounded(fn, x, ext, fp.RoundToOdd)
}

func TestLevelFor(t *testing.T) {
	res := &Result{Levels: StandardLevels(25)}
	if li, ok := res.LevelFor(fp.Bfloat16); !ok || li != 0 {
		t.Errorf("bf16 → %d", li)
	}
	if li, ok := res.LevelFor(fp.MustFormat(18, 8)); !ok || li != 1 {
		t.Errorf("F18 → %d", li)
	}
	if li, ok := res.LevelFor(fp.MustFormat(25, 8)); !ok || li != 2 {
		t.Errorf("F25 → %d", li)
	}
	if _, ok := res.LevelFor(fp.Float32); ok {
		t.Error("F32 should not be served by F25 levels")
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Generate(bigmath.Ln, Options{Levels: []fp.Format{fp.Float16}}); err == nil {
		t.Error("non-8-bit-exponent level accepted")
	}
	if _, err := Generate(bigmath.Ln, Options{Levels: []fp.Format{fp.TensorFloat32, fp.Bfloat16}}); err == nil {
		t.Error("unordered levels accepted")
	}
}

func TestAddSpecial(t *testing.T) {
	res := &Result{Levels: StandardLevels(25), Specials: make([][]SpecialInput, 3)}
	res.AddSpecial(0, 2.0, 5.0)
	res.AddSpecial(0, 1.0, 4.0)
	res.AddSpecial(0, 2.0, 6.0) // overwrite
	sp := res.Specials[0]
	if len(sp) != 2 || sp[0].X != 1.0 || sp[1].X != 2.0 || sp[1].Proxy != 6.0 {
		t.Errorf("specials: %+v", sp)
	}
}

// The ProgressiveRO extension: lower levels generated against round-to-odd
// intervals must produce correctly rounded truncated results for all five
// modes — not just rn — at their own format.
func TestProgressiveROAllModes(t *testing.T) {
	levels := []fp.Format{fp.MustFormat(12, 8), fp.MustFormat(14, 8)}
	res, err := Generate(bigmath.Exp2, Options{Levels: levels, Seed: 11, ProgressiveRO: true})
	if err != nil {
		t.Fatal(err)
	}
	lvl := levels[0]
	ext := lvl.Extend(2)
	ev, err := res.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for b := uint64(0); b < lvl.NumValues(); b++ {
		x := lvl.Decode(b)
		roVal := ext.Decode(bigmath.CorrectlyRounded(bigmath.Exp2, x, ext, fp.RoundToOdd))
		v := ev.Value(x)
		for _, m := range fp.StandardModes {
			want := lvl.FromFloat64(roVal, m)
			if got := lvl.FromFloat64(v, m); got != want {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d wrong truncated results across all modes", wrong)
	}
	// Serving policy: the lower level now owns narrower formats under any
	// mode.
	if li, ok := res.ServingLevel(fp.MustFormat(11, 8), fp.RoundTowardPositive); !ok || li != 0 {
		t.Errorf("ServingLevel = %d, want 0", li)
	}
}
