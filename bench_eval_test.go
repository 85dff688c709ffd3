package repro_test

import (
	"testing"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/libm"
)

// BenchmarkEval is the serving-layer measurement behind BENCH_eval.json:
// per-call libm.Eval against the batch kernel of internal/eval, with the
// truncated-vs-full split made explicit. All rows run the same compiled
// level evaluator (gen.Evaluator); they differ in dispatch and rounding.
// Sub-benchmarks:
//
//	single     — libm.Eval per input: table and serving-level lookup,
//	             then the bits-only FromFloat64 rounding;
//	batch      — Kernel.EvalBatch at the serving level (truncated prefix
//	             for bfloat16/tensorfloat32 under rn), rounding with
//	             fp.Rounder;
//	batch-full — Kernel.EvalBatch forced to the largest level's full
//	             polynomial, isolating the progressive-truncation win.
//
// All three produce bit-identical outputs (libm's TestBatchMatchesPerCall);
// the reported ns/input divides by corpus size so rows compare directly.
func BenchmarkEval(b *testing.B) {
	largest, ok := libm.LargestFormat()
	if !ok {
		b.Skip("generated tables missing; run cmd/rlibm-gen -emit internal/libm")
	}
	res, err := libm.Progressive(bigmath.Exp2)
	if err != nil {
		b.Skip(err)
	}
	formats := []struct {
		name string
		f    fp.Format
	}{
		{"bfloat16", fp.Bfloat16},
		{"tensorfloat32", fp.TensorFloat32},
		{"float", largest},
	}
	const mode = fp.RoundNearestEven
	for _, fc := range formats {
		fc := fc
		b.Run(fc.name, func(b *testing.B) {
			xs := benchCorpus(bigmath.Exp2, fc.f, 2)
			dst := make([]uint64, len(xs))
			last := len(res.Levels) - 1
			perInput := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/input")
			}
			b.Run("single", func(b *testing.B) {
				b.ReportAllocs()
				var sink uint64
				for i := 0; i < b.N; i++ {
					for _, x := range xs {
						y, err := libm.Eval(bigmath.Exp2, x, fc.f, mode)
						if err != nil {
							b.Fatal(err)
						}
						sink += y
					}
				}
				_ = sink
				perInput(b)
			})
			b.Run("batch", func(b *testing.B) {
				k, err := eval.Compile(res, fc.f, mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.EvalBatch(dst, xs)
				}
				perInput(b)
			})
			b.Run("batch-full", func(b *testing.B) {
				k, err := eval.CompileAt(res, last, fc.f, mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.EvalBatch(dst, xs)
				}
				perInput(b)
			})
		})
	}
}
