// Package clarkson implements the paper's fast randomized algorithm for
// solving the huge, low-dimensional systems of interval constraints that
// define progressive polynomials (Algorithms 1 and 2, after Clarkson's
// Las Vegas algorithm for LPs in small dimension [9]).
//
// The multi-set of constraints is encoded as per-constraint weights. Each
// iteration draws a weighted sample of 6k² constraints, solves it with an
// LP solver (float64 simplex, escalating to the exact solver on numerical
// failure), and checks the sample solution against every constraint using
// the production double-precision Horner evaluation. On a "lucky"
// iteration — violated weight ≤ satisfied weight/(3k−1) — the violated
// constraints' weights double, which is exactly re-adding them to the
// multi-set. When the system is full-rank the solution is found in
// 6k·log n iterations in expectation (§3.4).
package clarkson

import (
	"math"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// Row is one progressive constraint: evaluating the first Terms
// coefficients of the polynomial at the reduced input X must land in
// [Lo, Hi]. Rows for lower-precision representations carry smaller Terms.
// Inputs is the number of original inputs whose constraints merged into
// this row (0 counts as 1): the solver accepts a candidate polynomial only
// when the *input* count of its violated rows is within AcceptViolations,
// since each such input becomes a special-case table entry.
type Row struct {
	X      float64
	Lo, Hi float64
	Terms  int
	Inputs int32
}

func (r *Row) inputCount() int {
	if r.Inputs <= 0 {
		return 1
	}
	return int(r.Inputs)
}

// Config tunes the solver.
type Config struct {
	// TotalTerms is k, the number of terms of the full polynomial (the
	// largest representation's term count).
	TotalTerms int
	// SampleSize overrides the 6k² sample size when positive.
	SampleSize int
	// MaxIters bounds the number of sampling iterations (the paper's
	// user-specified cut-off N).
	MaxIters int
	// AcceptViolations admits a solution whose violated rows cover at most
	// this many original inputs; those inputs become special-case entries
	// (paper §3.3: "we also accept a polynomial that satisfies all
	// constraints except a few").
	AcceptViolations int
	// XScale normalizes reduced inputs inside the LP: monomials are built
	// on t = x/XScale, which conditions the Vandermonde columns. The
	// returned coefficients are always in original-x units. Zero means 1.
	XScale float64
	// Structure is the monomial layout (dense, even or odd); the zero
	// value is the dense layout.
	Structure poly.Structure
	// DisableExact turns off escalation to the exact solver.
	DisableExact bool
	// ForceExact routes every sample to the exact solver instead of
	// accepting the float64 simplex's answer. The generator's rescue ladder
	// sets it when float64 numerics are suspected of blocking a solve;
	// ignored when DisableExact is set.
	ForceExact bool
	// StallIters bails out of the solve when BestViolations has not
	// improved for this many iterations and remains far above
	// AcceptViolations (0 = 64). The caller treats a stalled attempt like
	// an exhausted one and escalates term counts.
	StallIters int
	// Rng drives sampling; nil makes Solve build its own deterministic
	// generator. *rand.Rand is not safe for concurrent use, so a non-nil
	// Rng must be exclusive to one Solve call: concurrent solves (the
	// per-piece loop in gen) each pass their own generator, seeded
	// deterministically from the piece identity. Solve keeps no state
	// between calls beyond the caller's Rng position.
	Rng *rand.Rand
	// Faults, when non-nil, enables the solver injection sites
	// (solver.sample fails one iteration's sample LP; solver.budget
	// exhausts the solve immediately). Injected failures are counted in
	// Result.Injected so the caller can discard and deterministically
	// replay the poisoned solve.
	Faults *fault.Plan
}

// Result reports the outcome of a Solve.
type Result struct {
	// Found reports whether a polynomial meeting AcceptViolations was found.
	Found bool
	// Infeasible reports that a sample was proven infeasible by the exact
	// solver — a sound certificate that the full system is infeasible
	// (samples are subsets).
	Infeasible bool
	// Coeffs holds C1..Ck in original-x units (valid when Found).
	Coeffs []float64
	// Violations lists indices of rows not satisfied by Coeffs.
	Violations []int
	// Iters counts sampling iterations; Lucky those that doubled weights.
	Iters, Lucky int
	// Samples counts the iterations that actually drew a weighted sample
	// (injected sample failures and budget exhaustion skip the draw).
	Samples int
	// ExactSolves counts escalations to the exact solver.
	ExactSolves int
	// ExactFallbacks counts the escalations whose float basis had no exact
	// certificate, so the rational Bland tableau ran (a subset of
	// ExactSolves).
	ExactFallbacks int
	// LastErr is the most recent LP solver error (diagnostics).
	LastErr error
	// BestViolations is the smallest violated-input count seen
	// (diagnostics).
	BestViolations int
	// BestViolated lists the row indices violated at the best iteration;
	// the caller's term-escalation heuristics use it when Found is false.
	BestViolated []int
	// Injected counts fault-injection firings consumed by this solve. A
	// nonzero count marks the whole result as poisoned: the caller must
	// discard it and replay the solve with an identically seeded Rng
	// (occurrence counting has moved past the scheduled faults, so the
	// replay reproduces the no-fault run exactly).
	Injected int
}

func (c *Config) structure() poly.Structure {
	if c.Structure.Stride == 0 {
		return poly.Dense
	}
	return c.Structure
}

func (c *Config) sampleSize() int {
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 6 * c.TotalTerms * c.TotalTerms
}

// Solve runs the randomized algorithm over the rows. The empty system is
// trivially solved by the zero polynomial.
func Solve(rows []Row, cfg Config) Result {
	k := cfg.TotalTerms
	if k <= 0 {
		//lint:ignore barepanic API misuse by the generator, not a recoverable runtime condition; gen always passes k >= 1.
		panic("clarkson: TotalTerms must be positive")
	}
	if cfg.XScale == 0 {
		cfg.XScale = 1
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 64 * k * int(math.Log2(float64(len(rows)+2))+1)
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(0x524c49424d)) // "RLIBM"
	}
	totalInputs := 0
	for i := range rows {
		totalInputs += rows[i].inputCount()
	}
	res := Result{BestViolations: totalInputs + 1}
	if len(rows) == 0 {
		res.Found = true
		res.Coeffs = make([]float64, k)
		res.BestViolations = 0
		return res
	}

	weights := make([]float64, len(rows))
	for i := range weights {
		weights[i] = 1
	}
	sample := cfg.sampleSize()
	violated := make([]int, 0, 1024)
	stall := cfg.StallIters
	if stall == 0 {
		stall = 96
	}
	lastImprove := 0
	// Candidate solution within the violation budget but not yet perfect:
	// kept while the weight doubling tries to drive violations to zero, so
	// special-case inputs are a last resort, not the first exit.
	var candCoeffs []float64
	var candViolated []int

	for res.Iters < cfg.MaxIters {
		if cfg.Faults.Should(fault.SiteSolverBudget) {
			// Injected budget exhaustion: give up immediately, as if the
			// iteration cut-off had been reached without a solution.
			res.Injected++
			res.LastErr = fault.Injected(fault.SiteSolverBudget)
			break
		}
		res.Iters++
		if cfg.Faults.Should(fault.SiteSolverSample) {
			// Injected sample failure: this iteration's LP "fails
			// numerically" in both the float64 and exact solvers.
			res.Injected++
			res.LastErr = fault.Injected(fault.SiteSolverSample)
			continue
		}
		idx := sampling.Weighted(weights, sample, rng)
		res.Samples++
		coeffs, exact, fallback, infeasible, solveErr, ok := solveSample(rows, idx, k, cfg)
		if exact {
			res.ExactSolves++
		}
		if fallback {
			res.ExactFallbacks++
		}
		if solveErr != nil {
			res.LastErr = solveErr
		}
		if infeasible {
			// A subset of the constraints has no solution: neither does the
			// full system. If a candidate within the violation budget is in
			// hand, that is the best possible outcome (the violated inputs
			// become special cases); otherwise report the certificate.
			res.Infeasible = true
			break
		}
		if !ok {
			continue
		}

		// Check every constraint with the production evaluation.
		violated = violated[:0]
		violatedInputs := 0
		var wViolated, wSatisfied float64
		st := cfg.structure()
		for i := range rows {
			r := &rows[i]
			v := st.Eval(coeffs, r.Terms, r.X)
			if v >= r.Lo && v <= r.Hi {
				wSatisfied += weights[i]
			} else {
				wViolated += weights[i]
				violated = append(violated, i)
				violatedInputs += r.inputCount()
			}
		}
		if violatedInputs < res.BestViolations {
			res.BestViolations = violatedInputs
			res.BestViolated = append(res.BestViolated[:0], violated...)
			lastImprove = res.Iters
		}
		if violatedInputs == 0 {
			res.Found = true
			res.Coeffs = coeffs
			res.Violations = nil
			return res
		}
		if violatedInputs <= cfg.AcceptViolations &&
			(candCoeffs == nil || violatedInputs <= len(candViolated)) {
			candCoeffs = append(candCoeffs[:0], coeffs...)
			candViolated = append(candViolated[:0], violated...)
		}
		if res.Iters-lastImprove > stall {
			break
		}
		// Lucky-iteration test (§3.3): with weights, "violating at most
		// 1/3k of the multi-set" becomes w_vio ≤ w_sat/(3k−1).
		if wViolated <= wSatisfied/float64(3*k-1) {
			res.Lucky++
			for _, i := range violated {
				weights[i] *= 2
			}
			// Renormalize long runs so keys stay in range (scaling all
			// weights uniformly leaves the sampling distribution and the
			// lucky test unchanged).
			if res.Lucky%256 == 0 {
				max := 0.0
				for _, w := range weights {
					if w > max {
						max = w
					}
				}
				if max > math.Ldexp(1, 512) {
					inv := 1 / max
					for i := range weights {
						weights[i] *= inv
					}
				}
			}
		}
	}
	if candCoeffs != nil {
		res.Found = true
		res.Coeffs = candCoeffs
		res.Violations = candViolated
	}
	return res
}

// solveSample builds the LP for the sampled rows and solves it, escalating
// to the exact solver when the float64 simplex cannot certify an answer.
// It returns the descaled coefficient vector; usedFallback reports that
// the exact solver had to run its rational Bland tableau.
func solveSample(rows []Row, idx []int, k int, cfg Config) (coeffs []float64, usedExact, usedFallback, infeasible bool, solveErr error, ok bool) {
	st := cfg.structure()
	prob := lp.Problem{NumVars: k}
	prob.Constraints = make([]lp.Constraint, 0, len(idx))
	inv := 1 / cfg.XScale
	for _, i := range idx {
		r := rows[i]
		terms := r.Terms
		if terms > k {
			terms = k
		}
		cs := make([]float64, k)
		t := r.X * inv
		for j := 0; j < terms; j++ {
			cs[j] = math.Pow(t, float64(st.Exponent(j)))
		}
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: cs, Lo: r.Lo, Hi: r.Hi})
	}
	// Samples containing singleton rows (exact results: the y-interval is
	// one point, an equality in the LP) go straight to the exact solver:
	// the float simplex can approach but never exactly hit the pinned
	// coefficient, and the production Horner check requires exactness.
	// The exact solver certifies the float simplex's basis in exact
	// arithmetic and runs its rational Bland tableau only when no
	// certificate exists. Its sample is capped — the fallback's cost grows
	// steeply with row count, and solving any subsample optimally still
	// yields a valid Las Vegas candidate (the full-set violation check and
	// weight doubling preserve correctness; only the lucky-iteration
	// probability bound degrades). The certificate and the fallback see
	// the same capped problem and return the same answer.
	const exactRowCap = 120
	solveExact := func() (lp.Solution, error) {
		ep := prob
		if len(ep.Constraints) > exactRowCap {
			// Keep every equality row (they are why we are here), fill the
			// remainder with the leading inequality rows.
			capped := make([]lp.Constraint, 0, exactRowCap)
			for _, c := range ep.Constraints {
				if c.IsEquality() {
					capped = append(capped, c)
				}
			}
			for _, c := range ep.Constraints {
				if len(capped) >= exactRowCap {
					break
				}
				if !c.IsEquality() {
					capped = append(capped, c)
				}
			}
			ep.Constraints = capped
		}
		usedExact = true
		sol, err := lp.SolveMaxMarginExact(ep)
		usedFallback = sol.Fallback
		return sol, err
	}
	hasEquality := false
	for _, c := range prob.Constraints {
		if c.IsEquality() {
			hasEquality = true
			break
		}
	}
	var sol lp.Solution
	var err error
	if (hasEquality || cfg.ForceExact) && !cfg.DisableExact {
		sol, err = solveExact()
	} else {
		sol, err = lp.SolveMaxMargin(prob)
		// The float simplex's infeasibility verdict is an epsilon
		// judgement, not a certificate — confirm (or refute) it with the
		// exact solver before letting it cut the search.
		if lp.Uncertain(err) && !cfg.DisableExact {
			sol, err = solveExact()
		}
	}
	if err == lp.ErrInfeasible {
		// Only the exact rational solver can certify infeasibility.
		return nil, usedExact, usedFallback, usedExact, nil, false
	}
	if err != nil {
		return nil, usedExact, usedFallback, false, err, false
	}
	// Descale: C'_j was fit against (x/s)^e_j, so C_j = C'_j · s^-e_j.
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		out[j] = sol.X[j] * math.Pow(inv, float64(st.Exponent(j)))
	}
	return out, usedExact, usedFallback, false, nil, true
}
