// Package eval is the batched serving layer of the generated library. It
// adds to gen's compiled level evaluator only what batching needs: the
// serving-level resolution of Compile (with ErrTooWide), precompiled
// rounding constants (fp.Rounder), the eval.* counters, and context
// chunking for per-request deadlines. The per-input value is
// gen.Evaluator.ValuePath — the same code verify certifies and libm.Eval
// runs — so the only served-vs-verified difference left is the rounder,
// which fp's TestRounderMatchesFromFloat64 pins to the verifier's
// FromFloat64. The evalhot analyzer of rlibm-lint pins the hot-loop
// restrictions statically, here and in the evaluator it calls.
package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/obs"
)

// ErrTooWide reports a requested output format wider than the largest
// generated level; matchable with errors.Is.
var ErrTooWide = errors.New("output format wider than the generated levels")

// Kernel is one compiled (function, level, output format, rounding mode)
// batch evaluator. A Kernel is immutable after Compile and safe for
// concurrent EvalBatch calls; attach an observability span with Observe
// before sharing it across goroutines.
type Kernel struct {
	fn        bigmath.Func
	out       fp.Format
	mode      fp.Mode
	level     int
	truncated bool
	ev        *gen.Evaluator
	rnd       fp.Rounder
	sp        *obs.Span
}

// Compile builds the batch kernel serving (fn=res.Fn, out, mode): the level
// is res.ServingLevel(out, mode) — the truncated progressive prefix when
// the guarantee covers (out, mode), the largest level's full polynomial
// otherwise. Fails with ErrTooWide (wrapped) when out exceeds the generated
// ladder.
func Compile(res *gen.Result, out fp.Format, mode fp.Mode) (*Kernel, error) {
	if res == nil {
		return nil, errors.New("eval: nil result")
	}
	li, ok := res.ServingLevel(out, mode)
	if !ok {
		return nil, fmt.Errorf("eval: %v: %v exceeds largest level %v: %w",
			res.Fn, out, res.Levels[len(res.Levels)-1], ErrTooWide)
	}
	return CompileAt(res, li, out, mode)
}

// CompileAt builds the batch kernel evaluating level li, rounding into out
// under mode. Compile (which resolves the certified level) is the normal
// entry point; CompileAt additionally lets benchmarks and experiments pin
// a level — e.g. forcing the largest level's full polynomial for a
// truncated-vs-full comparison on the same table. Inputs handed to
// EvalBatch must be values of level li's format (which every value of out
// is, whenever li came from ServingLevel).
func CompileAt(res *gen.Result, li int, out fp.Format, mode fp.Mode) (*Kernel, error) {
	if res == nil {
		return nil, errors.New("eval: nil result")
	}
	ev, err := res.Compile(li)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return &Kernel{
		fn:        res.Fn,
		out:       out,
		mode:      mode,
		level:     li,
		truncated: li < len(res.Levels)-1,
		ev:        ev,
		rnd:       fp.NewRounder(out, mode),
	}, nil
}

// Func identifies the compiled elementary function.
func (k *Kernel) Func() bigmath.Func { return k.fn }

// Format returns the output format results are rounded into.
func (k *Kernel) Format() fp.Format { return k.out }

// Mode returns the rounding mode results are rounded under.
func (k *Kernel) Mode() fp.Mode { return k.mode }

// Level returns the progressive level the kernel evaluates.
func (k *Kernel) Level() int { return k.level }

// Truncated reports whether the kernel evaluates a truncated progressive
// prefix (a level below the largest) rather than the full polynomial.
func (k *Kernel) Truncated() bool { return k.truncated }

// Observe attaches an observability span: every subsequent EvalBatch
// records the eval.* counters onto it, once per batch. Call before sharing
// the kernel across goroutines (the field itself is unsynchronized; the
// span's own methods are concurrency-safe and nil-safe).
func (k *Kernel) Observe(sp *obs.Span) { k.sp = sp }

// EvalBatch evaluates fn over src, writing one output bit pattern per input
// into dst (which must be at least as long as src). Inputs must be values
// of the compiled level's format. The loop allocates nothing and calls no
// interface method: per input it is the level evaluator's ValuePath and
// the precompiled rounding.
//
// Bit contract: dst[i] is Format().FromFloat64(v, Mode()) for v the Value
// of src[i] under the result's evaluator of level Level() — the bits
// verify certified, because fp.Rounder.Round equals FromFloat64.
func (k *Kernel) EvalBatch(dst []uint64, src []float64) {
	if len(dst) < len(src) {
		panic("eval: dst shorter than src")
	}
	specials, polys := k.evalLoop(dst, src)
	sp := k.sp
	sp.Add(obs.CtrEvalBatches, 1)
	sp.Add(obs.CtrEvalInputs, int64(len(src)))
	sp.Add(obs.CtrEvalSpecialHits, specials)
	if k.truncated {
		sp.Add(obs.CtrEvalTruncated, polys)
	} else {
		sp.Add(obs.CtrEvalFull, polys)
	}
}

// Eval evaluates one input (tests, spot checks; the batch entry point is
// the product). It records no counters.
func (k *Kernel) Eval(x float64) uint64 {
	return k.rnd.Round(k.ev.Value(x))
}

// evalLoop is the batch hot loop. The evalhot analyzer of rlibm-lint
// enforces its restrictions statically, on it and on everything it calls:
// no allocating expressions, no interface method calls, no sort.Search, no
// big.Float. Counters are tallied into locals and recorded by the caller
// after the loop.
//
//evalhot:loop
func (k *Kernel) evalLoop(dst []uint64, src []float64) (specials, polys int64) {
	for i, x := range src {
		v, special := k.ev.ValuePath(x)
		dst[i] = k.rnd.Round(v)
		if special {
			specials++
		} else {
			polys++
		}
	}
	return specials, polys
}

// ctxChunk bounds how many inputs EvalBatchCtx evaluates between context
// checks: large enough that the per-chunk ctx.Err() load is amortized to
// nothing, small enough that a canceled request stops within tens of
// microseconds.
const ctxChunk = 4096

// EvalBatchCtx is EvalBatch with a cancellation point between chunks: the
// serving layer propagates per-request deadlines through it, so a request
// whose client went away (or whose deadline passed) stops mid-batch instead
// of burning the rest of the slice. Outputs written before cancellation are
// valid; the returned error is ctx.Err(). The chunk loop lives outside the
// //evalhot:loop region — the hot loop itself stays branch-free.
func (k *Kernel) EvalBatchCtx(ctx context.Context, dst []uint64, src []float64) error {
	if len(dst) < len(src) {
		panic("eval: dst shorter than src")
	}
	for len(src) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(src)
		if n > ctxChunk {
			n = ctxChunk
		}
		k.EvalBatch(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	return nil
}
