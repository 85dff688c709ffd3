// Package gen implements the RLIBM-Prog progressive polynomial generator:
// it enumerates every input of every representation level, computes
// correctly rounded results with the oracle, derives reduced rounding
// intervals through the inverse output compensation, and solves the
// resulting huge low-dimensional constraint system with the Clarkson
// randomized solver, escalating term counts, sub-domain splits and
// special-case inputs exactly as §3 of the paper describes.
//
// The generator is organized as an explicit staged pipeline:
//
//	Enumerate (enumerate.go)  oracle → raw rounding-interval constraints
//	Reduce    (reduce.go)     raw constraints → merged constraint set
//	Solve     (solve.go)      Clarkson per piece → progressive polynomials
//	Verify    (internal/verify, staged by internal/cli)
//
// Each stage consumes and produces a typed artifact (artifact.go) that can
// be checkpointed in a content-addressed store (internal/pipeline): see
// GenerateStaged. Generate is the storeless entry point; it runs the same
// stages in memory.
package gen

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bigmath"
	"repro/internal/fault"
	"repro/internal/fp"
	"repro/internal/oracle"
	"repro/internal/poly"
)

// Options configures a generation run.
type Options struct {
	// Levels lists the representations from smallest to largest (e.g.
	// bfloat16, tensorfloat32, float); the largest level's constraints are
	// built for its 2-bit round-to-odd extension, the others for
	// round-to-nearest-even, as in the paper. All levels must share the
	// exponent width 8.
	Levels []fp.Format
	// MaxTerms bounds the term count of the full polynomial (default 8).
	MaxTerms int
	// MaxPieces bounds sub-domain splitting (default 4, as in Table 1).
	MaxPieces int
	// MaxSpecials bounds LP-violation special-case inputs per sub-domain
	// (default 4, as in Table 1).
	MaxSpecials int
	// ClarksonIters bounds sampling iterations per solve attempt
	// (default 220).
	ClarksonIters int
	// ForcePieces, when positive, pins the sub-domain count instead of the
	// adaptive 1→MaxPieces escalation — this is how the RLibm-All baseline
	// (large piecewise tables, single level) is generated.
	ForcePieces int
	// ProgressiveRO constrains the lower levels with round-to-odd
	// intervals at level+2 bits instead of round-to-nearest: the truncated
	// progressive evaluations then produce correctly rounded results for
	// *all five* rounding modes (and every narrower format), not just rn —
	// an extension beyond the paper's Table 2 guarantee, typically at the
	// cost of one extra term per lower level.
	ProgressiveRO bool
	// Seed drives all randomness; runs are reproducible. Every concurrent
	// Clarkson solve derives its own generator from Seed and its (kernel,
	// piece-count, piece) coordinates, so the output does not depend on
	// Workers.
	Seed int64
	// Workers bounds the worker goroutines of the enumeration, solve,
	// specials-resolution and merge stages: 0 means one per logical CPU,
	// 1 runs everything inline. The generated result is bit-identical for
	// every value.
	Workers int
	// Logf, when non-nil, receives progress lines.
	Logf func(string, ...interface{})
	// Oracle, when non-nil, is used instead of a fresh one — sharing it
	// with the verification pass reuses its identity caches.
	Oracle *oracle.Oracle
	// Faults, when non-nil, enables the generator's fault-injection sites
	// (see internal/fault): Clarkson sample/budget failures and solve-pool
	// worker panics. Injected solver faults are recovered by replaying the
	// poisoned piece solve with an identically seeded generator, so a
	// recovered run is bit-identical to a fault-free one; unrecoverable
	// plans surface a typed *fault.Error. Test-only; nil in production.
	Faults *fault.Plan
}

func (o *Options) defaults() {
	if len(o.Levels) == 0 {
		o.Levels = StandardLevels(DefaultLargestBits)
	}
	if o.MaxTerms == 0 {
		o.MaxTerms = 8
	}
	if o.MaxPieces == 0 {
		o.MaxPieces = 4
	}
	if o.MaxSpecials == 0 {
		o.MaxSpecials = 4
	}
	if o.ClarksonIters == 0 {
		o.ClarksonIters = 220
	}
}

// DefaultLargestBits is the default width of the largest representation:
// the paper uses 32; the default experiments here use 22 so that exhaustive
// enumeration and verification of every function stay single-core-feasible
// (see DESIGN.md §3). Every code path is width-parametric.
const DefaultLargestBits = 22

// StandardLevels returns the paper's representation triple with the given
// largest width: bfloat16, tensorfloat32 and F(largestBits,8).
func StandardLevels(largestBits int) []fp.Format {
	return []fp.Format{fp.Bfloat16, fp.TensorFloat32, fp.MustFormat(largestBits, 8)}
}

// Piece is one sub-domain of a generated kernel polynomial.
type Piece struct {
	Lo, Hi float64
	Coeffs []float64
	// LevelTerms[li] is the number of leading coefficients to evaluate for
	// level li; the last entry equals len(Coeffs).
	LevelTerms []int
}

// KernelPoly is one generated kernel polynomial (functions with two
// kernels produce two).
type KernelPoly struct {
	Structure poly.Structure
	Pieces    []Piece
}

// SpecialInput is a per-input patch: when serving X at the level owning
// this entry, return Proxy rounded to the requested format and mode. Proxy
// is the decoded round-to-odd result at level+2 bits, so one double is
// correct for every rounding mode.
type SpecialInput struct {
	X     float64
	Proxy float64
}

// Stats reports generation effort. Duration, Oracle and Retries are
// volatile — they depend on cache warmth, wall clock or an injection plan —
// and are therefore excluded from the result artifact; every other field
// is deterministic.
type Stats struct {
	Duration       time.Duration
	RawConstraints int
	MergedRows     int
	Iters          int
	Lucky          int
	ExactSolves    int
	Attempts       int
	Oracle         oracle.Stats
	// Retries counts injected-fault piece replays in this run. A replay
	// reproduces the no-fault solve bit-for-bit, so the count is excluded
	// from the artifact: a recovered run's artifact equals the no-fault
	// artifact byte for byte.
	Retries int
	// SeedRotations, BudgetEscalations and Degradations count rescue-
	// ladder rungs consumed by kernels whose baseline pieces × terms
	// search ran dry (see rescueRungs). Rescue engagement depends only on
	// Options — never on injected faults, which are replayed or aborted —
	// so these are deterministic and recorded in the solve artifact.
	SeedRotations     int
	BudgetEscalations int
	Degradations      int
}

// Result is a generated progressive polynomial implementation.
type Result struct {
	Fn       bigmath.Func
	Levels   []fp.Format
	Kernels  []KernelPoly
	Specials [][]SpecialInput // per level
	// ProgressiveRO records that the lower levels were generated against
	// round-to-odd intervals, extending their truncated-evaluation
	// guarantee to all rounding modes and narrower formats.
	ProgressiveRO bool
	Stats         Stats
}

// checkLevels validates the level list shared by Generate and Enumerate.
func checkLevels(levels []fp.Format) error {
	for _, l := range levels {
		if l.ExpBits() != 8 {
			return fmt.Errorf("gen: level %v: schemes support the 8-exponent-bit family only", l)
		}
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Bits() <= levels[i-1].Bits() {
			return fmt.Errorf("gen: levels must be ordered by increasing width")
		}
	}
	return nil
}

// Enumerate runs only the constraint-enumeration and reduction stages of
// the pipeline — enumerate every input, query the oracle, derive and merge
// the rounding intervals — and reports the resulting system size.
// Benchmarks and tooling use it to measure the enumerate→oracle→interval
// hot path without the solve.
func Enumerate(fn bigmath.Func, opt Options) (rawConstraints, mergedRows int, err error) {
	return EnumerateStaged(context.Background(), fn, opt, nil)
}

// Generate runs the full RLIBM-Prog pipeline for fn in memory, with no
// artifact store or cancellation. It is exactly GenerateStaged with a nil
// store and a background context.
func Generate(fn bigmath.Func, opt Options) (*Result, error) {
	return GenerateStaged(context.Background(), fn, opt, nil)
}
