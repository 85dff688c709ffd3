package gen

import (
	"context"
	"math"
	"math/big"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/reduction"
)

// rawConstraint is one pre-merge constraint: input xbits of some level
// requires the kernel output at reduced input r to lie in [lo, hi].
type rawConstraint struct {
	r      float64
	lo, hi float64
	xbits  uint64
}

// rawSet is the Enumerate-stage artifact: every pre-merge rounding-interval
// constraint, in deterministic enumeration order, plus the structurally
// special inputs discovered along the way. It depends only on the function,
// the level list and ProgressiveRO — not on the seed or the solver options
// — so one enumeration serves every solve configuration.
type rawSet struct {
	// raw[kernel][level] lists the constraints in ascending input-bit
	// order (the order the serial enumerator discovers them in).
	raw [][][]rawConstraint
	// specials[level] lists inputs evicted during enumeration (empty
	// inversions, unusable affine splits), ascending.
	specials [][]uint64
	// rawCount is the total number of pre-merge constraints (the paper's
	// n, e.g. 512 million for e^x at full scale).
	rawCount int
}

// enumShard is the output of enumerating one contiguous bit-range of one
// level: per-kernel raw constraints and evicted specials in ascending input
// order. Concatenating shard outputs in shard order reproduces exactly what
// the serial loop would have produced over the union of the ranges.
type enumShard struct {
	raw      [][]rawConstraint // per kernel
	specials []uint64
	count    int
	rawCount int
}

// enumerateRange runs the per-input pipeline — decode, reduce, oracle,
// rounding interval, inverse compensation / affine split — over the bit
// patterns [rg.Lo, rg.Hi) of lvl. skip, when non-nil, is the level's
// dedup-loser bitmap (see dedupSkipBitmaps); marked inputs are skipped
// without touching the oracle. The shard owns all of its outputs; the only
// shared mutable state it touches is the concurrency-safe oracle.
func enumerateRange(red reduction.Lowered, orc *oracle.Oracle, lvl, outFmt fp.Format,
	mode fp.Mode, skip []uint64, rg parallel.Range, nk int) enumShard {

	sh := enumShard{raw: make([][]rawConstraint, nk)}
	twoPoly := red.NumPolys() == 2
	type kernelPair struct{ k0, k1 *big.Float }
	var kernelCache map[float64]kernelPair
	if twoPoly {
		kernelCache = make(map[float64]kernelPair)
	}
	for b := rg.Lo; b < rg.Hi; b++ {
		if skip != nil && skip[b>>6]&(1<<(b&63)) != 0 {
			continue // reduction state owned by an earlier input
		}
		x := lvl.Decode(b)
		ctx, regular := red.Reduce(x)
		if !regular {
			continue // structural special path, correct by construction
		}
		bits := orc.Result(x, outFmt, mode)
		iv, usable := interval.Rounding(outFmt, bits, mode)
		if !usable {
			// Zero or infinite correctly rounded result: no interval to
			// constrain (the sign of zero would be pinned), but the
			// polynomial path's final rounding saturates/flushes these
			// inputs correctly on its own. Skip the constraint; the
			// post-generation verification repairs any input this
			// optimism gets wrong.
			continue
		}
		if !twoPoly {
			yiv, ok := reduction.InvertMonotone(red, ctx, iv)
			if !ok {
				sh.specials = append(sh.specials, b)
				continue
			}
			sh.raw[0] = append(sh.raw[0], rawConstraint{r: ctx.R, lo: yiv.Lo, hi: yiv.Hi, xbits: b})
			sh.rawCount++
			sh.count++
			continue
		}
		// Two-kernel schemes: exact kernel values (cached by r) and the
		// affine box split.
		kp, haveK := kernelCache[ctx.R]
		if !haveK {
			kp.k0, kp.k1 = red.Kernels(ctx.R, 160)
			kernelCache[ctx.R] = kp
		}
		i0, i1, ok := reduction.SplitAffine(ctx, kp.k0, kp.k1, iv)
		if !ok {
			sh.specials = append(sh.specials, b)
			continue
		}
		for p, box := range [2]interval.Interval{i0, i1} {
			if box.Lo == -math.MaxFloat64 && box.Hi == math.MaxFloat64 {
				continue // unconstrained kernel at this input
			}
			sh.raw[p] = append(sh.raw[p], rawConstraint{r: ctx.R, lo: box.Lo, hi: box.Hi, xbits: b})
		}
		sh.rawCount += 2
		sh.count++
	}
	return sh
}

// dedupSkipBitmaps replays the sinpi/cospi reduction-state dedup of the
// serial enumerator as a cheap serial prepass (Reduce is a handful of
// float64 operations; the oracle work it saves is what dominates): identical
// reduction state implies identical function value and constraints for that
// family, so only the first input claiming a state — in (level, bit) order,
// with the seen-set carried across levels exactly like the serial loop's —
// contributes. The returned per-level bitmaps mark the losers, letting the
// sharded workers skip them with no cross-shard coordination and keeping the
// parallel output bit-identical to the serial one.
func dedupSkipBitmaps(red reduction.Lowered, levels []fp.Format) [][]uint64 {
	seen := make(map[reduction.Ctx]struct{})
	out := make([][]uint64, len(levels))
	for li, lvl := range levels {
		n := lvl.NumValues()
		bm := make([]uint64, (n+63)/64)
		for b := uint64(0); b < n; b++ {
			ctx, regular := red.Reduce(lvl.Decode(b))
			if !regular {
				continue
			}
			if _, dup := seen[ctx]; dup {
				bm[b>>6] |= 1 << (b & 63)
				continue
			}
			seen[ctx] = struct{}{}
		}
		out[li] = bm
	}
	return out
}

// enumerate runs the Enumerate stage: every finite input of every level is
// decoded, reduced and queried against the oracle, and the resulting raw
// rounding-interval constraints are collected per (kernel, level). The
// enumeration is sharded over contiguous bit-ranges and run on up to
// workers goroutines against the shared concurrency-safe oracle; shard
// outputs are concatenated in deterministic shard order, so the result is
// bit-identical to a serial run for every worker count. An oracle panic
// (Ziv exhaustion, real or injected) is recovered by the pool and returned
// as a typed *fault.Error with shard context; cancellation aborts between
// shards.
func enumerate(ctx context.Context, fn bigmath.Func, red reduction.Lowered, orc *oracle.Oracle,
	levels []fp.Format, progressiveRO bool, workers int, logf func(string, ...interface{})) (*rawSet, error) {

	nk := red.NumPolys()
	rs := &rawSet{
		raw:      make([][][]rawConstraint, nk),
		specials: make([][]uint64, len(levels)),
	}
	for p := 0; p < nk; p++ {
		rs.raw[p] = make([][]rawConstraint, len(levels))
	}

	var skips [][]uint64
	if fn == bigmath.SinPi || fn == bigmath.CosPi {
		skips = dedupSkipBitmaps(red, levels)
	}

	for li, lvl := range levels {
		largest := li == len(levels)-1
		outFmt := lvl
		mode := fp.RoundNearestEven
		if largest || progressiveRO {
			outFmt = lvl.Extend(2)
			mode = fp.RoundToOdd
		}
		var skip []uint64
		if skips != nil {
			skip = skips[li]
		}
		shards := parallel.SplitRange(lvl.NumValues(), parallel.ShardCount(workers))
		outs := make([]enumShard, len(shards))
		if err := parallel.ForEachErr(ctx, workers, len(shards), func(s int) error {
			outs[s] = enumerateRange(red, orc, lvl, outFmt, mode, skip, shards[s], nk)
			return nil
		}); err != nil {
			return nil, poolFault(err, StageEnumerate, fn)
		}
		count := 0
		for _, sh := range outs { // deterministic shard order = ascending bits
			for p := 0; p < nk; p++ {
				rs.raw[p][li] = append(rs.raw[p][li], sh.raw[p]...)
			}
			rs.specials[li] = append(rs.specials[li], sh.specials...)
			rs.rawCount += sh.rawCount
			count += sh.count
		}
		if logf != nil {
			logf("  level %v: %d poly-path inputs, %d structural specials",
				lvl, count, len(rs.specials[li]))
		}
	}
	return rs, nil
}
