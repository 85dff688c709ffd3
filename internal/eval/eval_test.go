package eval_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
)

// compileFor compiles the serving kernel of (fn, out, mode) from the
// registered progressive tables, skipping when tables are missing.
func compileFor(t testing.TB, fn bigmath.Func, out fp.Format, mode fp.Mode) (*gen.Result, *eval.Kernel, int) {
	t.Helper()
	res, err := libm.Progressive(fn)
	if err != nil {
		t.Skip(err)
	}
	li, ok := res.ServingLevel(out, mode)
	if !ok {
		t.Fatalf("%v: no serving level for %v/%v", fn, out, mode)
	}
	k, err := eval.Compile(res, out, mode)
	if err != nil {
		t.Fatalf("Compile(%v, %v, %v): %v", fn, out, mode, err)
	}
	if k.Level() != li || k.Format() != out || k.Mode() != mode || k.Func() != fn {
		t.Fatalf("%v: kernel metadata mismatch: level %d want %d", fn, k.Level(), li)
	}
	return res, k, li
}

// TestEvalBatchSpecialTable pins the special-input hash table: every
// special-table input of every level must answer, through the batch kernel
// of that level, with its entry's proxy rounded into the level's format.
func TestEvalBatchSpecialTable(t *testing.T) {
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.Progressive(fn)
		if err != nil {
			t.Skip(err)
		}
		for li, specials := range res.Specials {
			if len(specials) == 0 {
				continue
			}
			out := res.Levels[li]
			for _, mode := range fp.StandardModes {
				k, err := eval.CompileAt(res, li, out, mode)
				if err != nil {
					t.Fatalf("CompileAt(%v, %d): %v", fn, li, err)
				}
				src := make([]float64, len(specials))
				for i, s := range specials {
					src[i] = s.X
				}
				dst := make([]uint64, len(src))
				k.EvalBatch(dst, src)
				for i, s := range specials {
					if want := out.FromFloat64(s.Proxy, mode); dst[i] != want {
						t.Fatalf("%v level %d mode %v: special %x: batch %#x, proxy rounds to %#x",
							fn, li, mode, s.X, dst[i], want)
					}
				}
			}
		}
	}
}

// TestEvalBatchZeroAllocs pins the performance contract's allocation half:
// a compiled kernel's EvalBatch allocates nothing, including on batches
// that hit special paths.
func TestEvalBatchZeroAllocs(t *testing.T) {
	_, k, _ := compileFor(t, bigmath.Exp2, fp.Bfloat16, fp.RoundNearestEven)
	src := []float64{0.5, -1.25, 3, 200, -200, 0, math.NaN(), math.Inf(1), 1e-12, 0.7265625}
	dst := make([]uint64, len(src))
	if n := testing.AllocsPerRun(200, func() { k.EvalBatch(dst, src) }); n != 0 {
		t.Fatalf("EvalBatch allocates %v times per run", n)
	}
}

// TestEvalBatchCounters pins the observability wiring: one batch records
// batches/inputs/special-hits and the truncated-vs-full split once, on the
// attached span only.
func TestEvalBatchCounters(t *testing.T) {
	res, k, _ := compileFor(t, bigmath.Exp2, fp.Bfloat16, fp.RoundNearestEven)
	if !k.Truncated() {
		t.Fatalf("bfloat16 rn kernel should serve a truncated level")
	}
	rec := obs.New("run")
	k.Observe(rec.Root())
	src := []float64{0.5, math.NaN(), 2, -1}
	dst := make([]uint64, len(src))
	k.EvalBatch(dst, src)

	full, err := eval.CompileAt(res, len(res.Levels)-1, fp.Bfloat16, fp.RoundNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated() {
		t.Fatalf("largest-level kernel reported truncated")
	}
	full.Observe(rec.Root())
	full.EvalBatch(dst, src)

	got := rec.Report().Counters
	want := map[string]int64{
		"eval.batches": 2, "eval.inputs": 8,
		"eval.special_hits": 2, "eval.truncated": 3, "eval.full": 3,
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("counter %s = %d, want %d", name, got[name], n)
		}
	}
}

// TestCompileErrors covers the typed failure paths.
func TestCompileErrors(t *testing.T) {
	res, err := libm.Progressive(bigmath.Log2)
	if err != nil {
		t.Skip(err)
	}
	wide := res.Levels[len(res.Levels)-1].Extend(4)
	if _, err := eval.Compile(res, wide, fp.RoundNearestEven); !errors.Is(err, eval.ErrTooWide) {
		t.Fatalf("Compile(%v) error = %v, want ErrTooWide", wide, err)
	}
	if _, err := eval.Compile(nil, fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Fatal("Compile(nil) succeeded")
	}
	if _, err := eval.CompileAt(res, len(res.Levels), fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Fatal("CompileAt(out-of-range level) succeeded")
	}
	if _, err := eval.CompileAt(res, -1, fp.Bfloat16, fp.RoundNearestEven); err == nil {
		t.Fatal("CompileAt(-1) succeeded")
	}
}

// TestEvalBatchPanicsOnShortDst pins the explicit length contract.
func TestEvalBatchPanicsOnShortDst(t *testing.T) {
	_, k, _ := compileFor(t, bigmath.Exp2, fp.Bfloat16, fp.RoundNearestEven)
	defer func() {
		if recover() == nil {
			t.Fatal("EvalBatch with short dst did not panic")
		}
	}()
	k.EvalBatch(make([]uint64, 1), make([]float64, 2))
}
