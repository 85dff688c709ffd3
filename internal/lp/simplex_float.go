package lp

import "math"

// SolveMaxMargin solves the margin LP with the dense float64 two-phase
// simplex. On success the returned Solution carries the coefficient vector
// and the optimal relative margin δ (≥ 0 iff every constraint holds with
// its proportional slack). It returns ErrInfeasible when even δ → -∞
// cannot satisfy the rows (contradictory equalities), and ErrNumeric when
// the tableau degenerates.
func SolveMaxMargin(p Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	k := p.NumVars
	t, colScale, err := runFloat(marginRows(p), k)
	if err != nil {
		return Solution{}, err
	}

	z := t.values(t.n)
	x := make([]float64, k)
	for j := 0; j < k; j++ {
		x[j] = (z[j] - z[k+j]) * colScale[j]
	}
	claimed := z[2*k]*colScale[2*k] - z[2*k+1]*colScale[2*k+1]
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Solution{}, ErrNumeric
		}
	}
	// Self-verification: the float tableau can silently drift on
	// ill-conditioned systems. Recompute the margin by direct evaluation
	// and reject the solve when it falls materially short of the claim —
	// callers then retry with the exact rational solver.
	measured := p.MeasuredMargin(x)
	if measured < claimed-0.2*(1+math.Abs(claimed)) {
		return Solution{}, ErrNumeric
	}
	return Solution{X: x, Margin: measured}, nil
}

// runFloat runs the float64 two-phase simplex on the margin rows of a
// k-variable problem to its final basis: phase 1 minimizes the sum of the
// artificials, phase 2 minimizes −δ = −(d+ − d−) with the artificials
// blocked. Rows and structural columns are equilibrated; colScale maps the
// tableau's structural values back to problem units. Both solvers start
// here: SolveMaxMargin reads its answer off the tableau, and
// SolveMaxMarginExact certifies t.basis exactly.
func runFloat(rows []marginRow, k int) (t *tableau, colScale []float64, err error) {
	nStruct := 2*k + 2
	m := len(rows)
	nSlack := m // one reserved per row; zero column for equality rows
	n := nStruct + nSlack + m

	// Column equilibration for the structural columns.
	colScale = make([]float64, nStruct)
	for j := range colScale {
		mx := 0.0
		for _, r := range rows {
			if a := math.Abs(r.coef[j]); a > mx {
				mx = a
			}
		}
		if mx == 0 {
			mx = 1
		}
		colScale[j] = 1 / mx
	}

	// Assemble the tableau with row equilibration.
	t = newTableau(m, n)
	artStart := nStruct + nSlack
	for i, r := range rows {
		rowMax := math.Abs(r.rhs)
		for j, a := range r.coef {
			if s := math.Abs(a * colScale[j]); s > rowMax {
				rowMax = s
			}
		}
		if rowMax == 0 {
			rowMax = 1
		}
		rs := 1 / rowMax
		sign := 1.0
		if r.rhs*rs < 0 {
			sign = -1 // keep b ≥ 0
		}
		for j, a := range r.coef {
			t.a[i][j] = sign * rs * a * colScale[j]
		}
		if r.slack != 0 {
			t.a[i][nStruct+i] = sign * rs * r.slack
		}
		t.a[i][artStart+i] = 1
		t.a[i][n] = sign * rs * r.rhs
		t.basis[i] = artStart + i
	}

	// Phase 1: minimize the sum of artificials.
	t.initPhase1(artStart)
	if status := t.iterate(artStart); status != lpOptimal {
		return nil, nil, ErrNumeric
	}
	if t.cost[n] < -phase1Eps {
		return nil, nil, ErrInfeasible
	}
	t.driveOutArtificials(artStart)

	// Phase 2: minimize -δ = -(d+ - d-).
	obj := make([]float64, n+1)
	obj[2*k] = -1
	obj[2*k+1] = 1
	t.initPhase2(obj, artStart)
	if status := t.iterate(artStart); status == lpUnbounded {
		return nil, nil, ErrUnbounded
	} else if status != lpOptimal {
		return nil, nil, ErrNumeric
	}
	return t, colScale, nil
}

const (
	pivotEps   = 1e-11
	costEps    = 1e-9
	phase1Eps  = 1e-7
	maxPivots  = 4000
	blandAfter = 600 // switch to Bland's rule after this many pivots
)

type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpUnbounded
	lpStuck
)

// tableau is a dense simplex tableau: m rows of n structural+slack+artificial
// columns plus a rhs column, and a reduced-cost row.
type tableau struct {
	m, n  int
	a     [][]float64 // m × (n+1)
	cost  []float64   // n+1; cost[n] = -objective
	basis []int
}

func newTableau(m, n int) *tableau {
	t := &tableau{m: m, n: n, basis: make([]int, m)}
	t.a = make([][]float64, m)
	for i := range t.a {
		t.a[i] = make([]float64, n+1)
	}
	t.cost = make([]float64, n+1)
	return t
}

// initPhase1 sets the reduced-cost row for minimizing the artificial sum,
// given that the artificials (columns ≥ artStart) form the initial basis.
func (t *tableau) initPhase1(artStart int) {
	for j := 0; j <= t.n; j++ {
		s := 0.0
		for i := 0; i < t.m; i++ {
			s += t.a[i][j]
		}
		t.cost[j] = -s
	}
	for j := artStart; j < t.n; j++ {
		t.cost[j] = 0
	}
}

// initPhase2 installs the objective obj (length n+1, rhs entry ignored) and
// reduces it against the current basis.
func (t *tableau) initPhase2(obj []float64, artStart int) {
	copy(t.cost, obj)
	t.cost[t.n] = 0
	for i, b := range t.basis {
		cb := t.cost[b]
		if cb == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			t.cost[j] -= cb * t.a[i][j]
		}
	}
	// Artificials must never re-enter.
	for j := artStart; j < t.n; j++ {
		t.cost[j] = math.Inf(1)
	}
}

// iterate runs simplex pivots until optimality: Dantzig pricing first,
// Bland's rule after blandAfter pivots to break cycles. Columns at or above
// artBlock with +Inf cost are blocked.
func (t *tableau) iterate(artBlock int) lpStatus {
	for iter := 0; iter < maxPivots; iter++ {
		// Pricing.
		enter := -1
		if iter < blandAfter {
			best := -costEps
			for j := 0; j < t.n; j++ {
				c := t.cost[j]
				if !math.IsInf(c, 1) && c < best {
					best = c
					enter = j
				}
			}
		} else {
			for j := 0; j < t.n; j++ {
				c := t.cost[j]
				if !math.IsInf(c, 1) && c < -costEps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return lpOptimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aie := t.a[i][enter]
			if aie <= pivotEps {
				continue
			}
			r := t.a[i][t.n] / aie
			if r < bestRatio-pivotEps || (r < bestRatio+pivotEps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				bestRatio = r
				leave = i
			}
		}
		if leave < 0 {
			return lpUnbounded
		}
		t.pivot(leave, enter)
	}
	return lpStuck
}

// pivot performs a Gauss-Jordan pivot on (r, c).
func (t *tableau) pivot(r, c int) {
	pr := t.a[r]
	inv := 1 / pr[c]
	for j := 0; j <= t.n; j++ {
		pr[j] *= inv
	}
	pr[c] = 1
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j <= t.n; j++ {
			row[j] -= f * pr[j]
		}
		row[c] = 0
	}
	if f := t.cost[c]; f != 0 && !math.IsInf(f, 0) {
		for j := 0; j <= t.n; j++ {
			if !math.IsInf(t.cost[j], 0) {
				t.cost[j] -= f * pr[j]
			}
		}
		t.cost[c] = 0
	}
	t.basis[r] = c
}

// driveOutArtificials pivots basic artificial variables (necessarily at
// zero after a feasible phase 1) out of the basis where possible.
func (t *tableau) driveOutArtificials(artStart int) {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[i][j]) > 1e-8 {
				t.pivot(i, j)
				break
			}
		}
	}
}

// values extracts the current basic solution (length n).
func (t *tableau) values(n int) []float64 {
	z := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			z[b] = t.a[i][t.n]
		}
	}
	return z
}
