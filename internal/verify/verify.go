// Package verify checks generated implementations (and comparator
// libraries) for correct rounding by exhaustive enumeration, reproducing
// the methodology behind Table 2 of the paper.
//
// Every input costs one oracle call: the round-to-odd result at f+2 bits
// rounds correctly into every standard mode (the RLibm-All theorem). A
// generated result is checked through its compiled level evaluators
// (gen.Evaluator, compiled once per sweep or per NewGenImpl wrapper) — the
// code libm and the server run — and each input's Value is computed once
// per distinct serving level and rounded into each mode that level serves,
// so a five-mode sweep at a lower level costs two evaluations per input,
// not five. Any other Impl is asked once per mode.
//
// The (input × rounding-mode) space of every check is sharded into
// contiguous bit-ranges and verified on a worker pool (the workers argument
// resolves through parallel.WorkerCount: 0 means one per logical CPU, 1
// runs serially). Per-shard reports are merged in deterministic shard
// order, so mismatch counts, mismatch lists and first-failure witnesses are
// bit-identical to a serial sweep for every worker count. Impl
// implementations must therefore be safe for concurrent Bits calls — the
// generated Result, the baselines and the oracle all are.
package verify

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/parallel"
)

// Impl is any math-library implementation of one elementary function that
// can answer "f(x) rounded into out under mode" — the generated library,
// the RLibm-All baseline, and the double-precision comparators all satisfy
// it. Bits must be safe for concurrent calls.
type Impl interface {
	// Bits returns the result bit pattern of f(x) in out under mode; x is
	// always a value of out... of the queried input format.
	Bits(x float64, out fp.Format, mode fp.Mode) uint64
}

// Report summarizes one exhaustive check.
type Report struct {
	Format     fp.Format
	Mode       fp.Mode
	Checked    uint64
	Mismatches []uint64 // input bit patterns (capped)
}

// Correct reports whether no mismatches were found.
func (r Report) Correct() bool { return len(r.Mismatches) == 0 }

func (r Report) String() string {
	status := "correct"
	if !r.Correct() {
		status = fmt.Sprintf("%d WRONG", len(r.Mismatches))
	}
	return fmt.Sprintf("%v %v: %d inputs, %s", r.Format, r.Mode, r.Checked, status)
}

// maxRecorded caps the mismatch list so broken implementations don't
// accumulate gigabytes.
const maxRecorded = 1 << 16

// answers fills got[i] with the implementation's result bits for input x
// under modes[i], for every mode of a sweep at once.
type answers func(x float64, got []uint64)

// implAnswers asks impl once per mode — except the Impl NewGenImpl
// returns, whose serving levels are resolved here, once per sweep.
func implAnswers(impl Impl, f fp.Format, modes []fp.Mode) answers {
	if g, ok := impl.(genImpl); ok {
		levels := make([]int, len(modes))
		for i, m := range modes {
			levels[i] = g.level(f, m)
		}
		return levelAnswers(g.evs, f, modes, levels)
	}
	return func(x float64, got []uint64) {
		for i, m := range modes {
			got[i] = impl.Bits(x, f, m)
		}
	}
}

// noAnswer is what a level that does not compile answers: all ones, never
// the bit pattern of a format (at most 60 bits wide), so every input it
// should answer is reported as a mismatch.
const noAnswer = ^uint64(0)

// levelAnswers evaluates each input once per distinct level of levels
// (indexed like modes) with that level's evaluator in evs, and rounds the
// value into out under every mode the level serves.
func levelAnswers(evs []*gen.Evaluator, out fp.Format, modes []fp.Mode, levels []int) answers {
	var distinct []int
	for _, li := range levels {
		if !slices.Contains(distinct, li) {
			distinct = append(distinct, li)
		}
	}
	return func(x float64, got []uint64) {
		for _, li := range distinct {
			ev := evs[li]
			var v float64
			if ev != nil {
				v = ev.Value(x)
			}
			for i, m := range modes {
				if levels[i] != li {
					continue
				}
				got[i] = noAnswer
				if ev != nil {
					got[i] = out.FromFloat64(v, m)
				}
			}
		}
	}
}

// sweep checks the input bit patterns bits(0..n-1) of format f against
// the oracle's round-to-odd proxy under every mode, sharded over the pool,
// and merges the per-shard reports in shard order.
func sweep(f fp.Format, modes []fp.Mode, orc *oracle.Oracle, workers int, n uint64,
	bits func(uint64) uint64, answer answers) []Report {

	ext := f.Extend(2)
	shards := parallel.SplitRange(n, parallel.ShardCount(workers))
	per := make([][]Report, len(shards))
	parallel.ForEach(workers, len(shards), func(s int) {
		reports := make([]Report, len(modes))
		for i, m := range modes {
			reports[i] = Report{Format: f, Mode: m}
		}
		got := make([]uint64, len(modes))
		for k := shards[s].Lo; k < shards[s].Hi; k++ {
			b := bits(k)
			x := f.Decode(b)
			roVal := ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
			answer(x, got)
			for i, m := range modes {
				reports[i].Checked++
				if got[i] != f.FromFloat64(roVal, m) && len(reports[i].Mismatches) < maxRecorded {
					reports[i].Mismatches = append(reports[i].Mismatches, b)
				}
			}
		}
		per[s] = reports
	})
	// Merge in shard order: the shards partition the ascending work list,
	// so concatenating mismatch lists (capped like the serial sweep)
	// reproduces the serial reports exactly.
	return MergeReports(f, modes, per)
}

// MergeReports merges per-slice report sets produced over an ascending
// partition of one work list — the same merge sweep applies to its
// worker-pool shards, exported for the distributed assembler in
// internal/cli. Each element of per holds one Report per mode, in mode
// order. Because the slices partition the ascending input space and the
// mismatch cap is applied in slice order, the merged reports are
// bit-identical to a serial sweep for any partition.
func MergeReports(f fp.Format, modes []fp.Mode, per [][]Report) []Report {
	merged := make([]Report, len(modes))
	for i, m := range modes {
		merged[i] = Report{Format: f, Mode: m}
	}
	for _, reps := range per {
		for i := range merged {
			merged[i].Checked += reps[i].Checked
			room := maxRecorded - len(merged[i].Mismatches)
			if room > len(reps[i].Mismatches) {
				room = len(reps[i].Mismatches)
			}
			merged[i].Mismatches = append(merged[i].Mismatches, reps[i].Mismatches[:room]...)
		}
	}
	return merged
}

// Exhaustive checks impl against the oracle over every input of format f
// under each mode, sharded over up to workers goroutines. The oracle
// derives every standard mode from one round-to-odd result at f+2 bits
// (the RLibm-All theorem, property-tested in fp), so a multi-mode sweep
// costs a single oracle pass. A generated result (NewGenImpl) is likewise
// evaluated once per distinct serving level per input, not once per mode.
func Exhaustive(impl Impl, orc *oracle.Oracle, f fp.Format, modes []fp.Mode, workers int) []Report {
	return sweep(f, modes, orc, workers, f.NumValues(),
		func(i uint64) uint64 { return i }, implAnswers(impl, f, modes))
}

// Sampled checks impl against the oracle on n random inputs of format f
// plus a structured corpus (specials, boundaries, values near 1), under
// each mode. Used where exhaustive enumeration is too slow (the largest
// format in quick runs). The input list is drawn serially from the seed —
// so the checked set does not depend on workers — and then verified on the
// pool.
func Sampled(impl Impl, orc *oracle.Oracle, f fp.Format, modes []fp.Mode, n int, seed int64, workers int) []Report {
	rng := rand.New(rand.NewSource(seed))
	inputs := []uint64{
		f.Zero(false), f.Zero(true), f.Inf(false), f.Inf(true), f.NaN(),
		f.MinSubnormal(), f.MaxFinite(), f.FromFloat64(1, fp.RoundNearestEven),
		f.FromFloat64(-1, fp.RoundNearestEven), f.NextUp(f.FromFloat64(1, fp.RoundNearestEven)),
		f.NextDown(f.FromFloat64(1, fp.RoundNearestEven)),
	}
	for i := 0; i < n; i++ {
		inputs = append(inputs, uint64(rng.Int63())&(f.NumValues()-1))
	}
	return sweep(f, modes, orc, workers, uint64(len(inputs)),
		func(i uint64) uint64 { return inputs[i] }, implAnswers(impl, f, modes))
}

// genImpl adapts a generated Result to Impl, serving each query from the
// compiled evaluator of the level that owns the queried format.
type genImpl struct {
	res *gen.Result
	evs []*gen.Evaluator // per level; nil where the level does not compile
}

// NewGenImpl wraps a generated result as an Impl. Every level is compiled
// here, once: later changes to res (AddSpecial) need a new wrapper.
func NewGenImpl(res *gen.Result) Impl {
	evs := make([]*gen.Evaluator, len(res.Levels))
	for li := range evs {
		evs[li], _ = res.Compile(li) // a level that does not compile answers noAnswer
	}
	return genImpl{res: res, evs: evs}
}

func (g genImpl) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	ev := g.evs[g.level(out, mode)]
	if ev == nil {
		return noAnswer
	}
	return out.FromFloat64(ev.Value(x), mode)
}

// level is the level serving (out, mode): ServingLevel's, or the largest
// when out is wider than every level.
func (g genImpl) level(out fp.Format, mode fp.Mode) int {
	if li, ok := g.res.ServingLevel(out, mode); ok {
		return li
	}
	return len(g.res.Levels) - 1
}

// RepairBudget bounds how many mismatched inputs Repair may patch per
// level before declaring the implementation broken.
const RepairBudget = 64

// Repair exhaustively verifies each level of a generated result and
// patches mismatching inputs into the level's special-input table (with
// the all-modes round-to-odd proxy). The smaller levels are verified under
// round-to-nearest (the paper's progressive guarantee); the largest level
// under all five standard modes. It returns the number of patches applied
// and an error when a level exceeds the budget — which indicates a
// generation bug rather than the handful of expected stragglers. The
// verification sweeps run on up to workers goroutines; patching is serial
// and in mismatch order, so the repaired result is worker-count-
// independent.
func Repair(res *gen.Result, orc *oracle.Oracle, workers int) (int, error) {
	patched := 0
	for li, lvl := range res.Levels {
		modes := []fp.Mode{fp.RoundNearestEven}
		if li == len(res.Levels)-1 || res.ProgressiveRO {
			modes = fp.StandardModes
		}
		ext := lvl.Extend(2)
		for pass := 0; pass < 2; pass++ {
			total := 0
			for _, rep := range ExhaustiveLevel(res, orc, li, modes, workers) {
				total += len(rep.Mismatches)
				for _, b := range rep.Mismatches {
					x := lvl.Decode(b)
					proxy := ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
					res.AddSpecial(li, x, proxy)
					patched++
				}
			}
			if total == 0 {
				break
			}
			if total > RepairBudget {
				return patched, fmt.Errorf("verify: level %v has %d mismatches (budget %d)",
					lvl, total, RepairBudget)
			}
		}
	}
	return patched, nil
}

// ExhaustiveLevel verifies one level of a generated result: every input of
// the level's format, evaluated with that level's term counts, sharded
// over up to workers goroutines.
func ExhaustiveLevel(res *gen.Result, orc *oracle.Oracle, li int, modes []fp.Mode, workers int) []Report {
	lvl := res.Levels[li]
	return ExhaustiveLevelRange(res, orc, li, modes, workers, 0, lvl.NumValues())
}

// ExhaustiveLevelRange verifies the contiguous input slice [lo, hi) of one
// level of a generated result — the work unit of distributed verification:
// a full level sweep is the shard-order concatenation of its slice sweeps,
// so per-slice reports merged in ascending slice order are bit-identical
// to ExhaustiveLevel's (the same merge the worker pool already performs
// within one process).
func ExhaustiveLevelRange(res *gen.Result, orc *oracle.Oracle, li int, modes []fp.Mode, workers int, lo, hi uint64) []Report {
	lvl := res.Levels[li]
	if hi > lvl.NumValues() {
		hi = lvl.NumValues()
	}
	if lo > hi {
		lo = hi
	}
	levels := make([]int, len(modes))
	for i := range levels {
		levels[i] = li
	}
	evs := make([]*gen.Evaluator, len(res.Levels))
	// Compiled per sweep, since Repair patches between sweeps; a level that
	// does not compile answers noAnswer.
	evs[li], _ = res.Compile(li)
	return sweep(lvl, modes, orc, workers, hi-lo,
		func(i uint64) uint64 { return lo + i }, levelAnswers(evs, lvl, modes, levels))
}
