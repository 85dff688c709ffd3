package lp

import "math/big"

// SolveMaxMarginExact solves the margin LP exactly — the package's SoPlex
// substitute. Every float64 coefficient and bound converts exactly to a
// rational, and the answer is the exact optimum rounded to the nearest
// float64s only on return.
//
// It first runs the float64 simplex to its final basis and certifies that
// basis in exact arithmetic (see certify). A certificate proves the optimal
// x unique, so it is necessarily the vertex the rational Bland simplex
// reaches, rounded the same way. Without one — phase 1 stalled or claimed
// infeasibility, the basis is not exactly optimal, or the optimum is
// dual-degenerate — it runs the dense rational two-phase simplex with
// Bland's rule, which is guaranteed to terminate and whose infeasibility
// verdict is a certificate; Solution.Fallback records that it ran.
//
// The fallback's cost is polynomial but with rational-arithmetic
// constants: intended for the Clarkson samples (hundreds of rows), not for
// millions of rows.
func SolveMaxMarginExact(p Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	rows := marginRows(p)
	if t, _, err := runFloat(rows, p.NumVars); err == nil {
		if x, ok := certify(rows, p.NumVars, t.basis); ok {
			return Solution{X: x, Margin: p.MeasuredMargin(x)}, nil
		}
	}
	sol, err := solveBland(p, rows)
	sol.Fallback = true
	return sol, err
}

// solveBland solves the margin LP of p, whose rows are given, with the
// dense rational two-phase simplex and Bland's anti-cycling rule.
func solveBland(p Problem, rows []marginRow) (Solution, error) {
	k := p.NumVars
	nStruct := 2*k + 2
	m := len(rows)
	n := nStruct + m + m // slacks + artificials
	artStart := nStruct + m

	t := newRatTableau(m, n)
	for i, r := range rows {
		sign := 1.0
		if r.rhs < 0 {
			sign = -1
		}
		for j, a := range r.coef {
			if a != 0 {
				t.set(i, j, new(big.Rat).SetFloat64(sign*a))
			}
		}
		if r.slack != 0 {
			t.set(i, nStruct+i, new(big.Rat).SetFloat64(sign*r.slack))
		}
		t.set(i, artStart+i, big.NewRat(1, 1))
		t.set(i, n, new(big.Rat).SetFloat64(sign*r.rhs))
		t.basis[i] = artStart + i
	}

	// Phase 1.
	t.initPhase1(artStart)
	if !t.iterateBland(artStart) {
		return Solution{}, ErrUnbounded
	}
	if t.cost[n].Sign() < 0 {
		return Solution{}, ErrInfeasible
	}
	t.driveOutArtificials(artStart)

	// Phase 2: minimize -(d+ - d-).
	obj := make([]*big.Rat, n+1)
	obj[2*k] = big.NewRat(-1, 1)
	obj[2*k+1] = big.NewRat(1, 1)
	t.initPhase2(obj, artStart)
	if !t.iterateBland(artStart) {
		return Solution{}, ErrUnbounded
	}

	x := make([]float64, k)
	vals := t.solution(n)
	for j := 0; j < k; j++ {
		d := new(big.Rat).Sub(vals[j], vals[k+j])
		x[j], _ = d.Float64()
	}
	// Report the margin of the float64-rounded solution (what the pipeline
	// will actually evaluate), not the exact-rational optimum.
	return Solution{X: x, Margin: p.MeasuredMargin(x)}, nil
}

// ratTableau is a dense exact simplex tableau. Zero entries are nil.
type ratTableau struct {
	m, n  int
	a     [][]*big.Rat // m × (n+1)
	cost  []*big.Rat   // n+1
	block []bool       // blocked (artificial) columns in phase 2
	basis []int
}

func newRatTableau(m, n int) *ratTableau {
	t := &ratTableau{m: m, n: n, basis: make([]int, m), block: make([]bool, n)}
	t.a = make([][]*big.Rat, m)
	for i := range t.a {
		t.a[i] = make([]*big.Rat, n+1)
	}
	t.cost = make([]*big.Rat, n+1)
	return t
}

func (t *ratTableau) set(i, j int, v *big.Rat) { t.a[i][j] = v }

func (t *ratTableau) at(i, j int) *big.Rat {
	if t.a[i][j] == nil {
		return ratZero
	}
	return t.a[i][j]
}

var ratZero = new(big.Rat)

func (t *ratTableau) initPhase1(artStart int) {
	for j := 0; j <= t.n; j++ {
		s := new(big.Rat)
		for i := 0; i < t.m; i++ {
			if t.a[i][j] != nil {
				s.Add(s, t.a[i][j])
			}
		}
		s.Neg(s)
		t.cost[j] = s
	}
	for j := artStart; j < t.n; j++ {
		t.cost[j] = new(big.Rat)
		t.block[j] = false
	}
}

func (t *ratTableau) initPhase2(obj []*big.Rat, artStart int) {
	for j := 0; j <= t.n; j++ {
		if obj[j] == nil {
			t.cost[j] = new(big.Rat)
		} else {
			t.cost[j] = new(big.Rat).Set(obj[j])
		}
	}
	for i, b := range t.basis {
		cb := t.cost[b]
		if cb.Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(cb)
		tmp := new(big.Rat)
		for j := 0; j <= t.n; j++ {
			if t.a[i][j] != nil && t.a[i][j].Sign() != 0 {
				t.cost[j].Sub(t.cost[j], tmp.Mul(f, t.a[i][j]))
			}
		}
	}
	for j := artStart; j < t.n; j++ {
		t.block[j] = true
	}
}

// iterateBland runs exact simplex with Bland's anti-cycling rule until
// optimality; returns false on unboundedness.
func (t *ratTableau) iterateBland(artStart int) bool {
	//lint:ignore ctxflow Bland's rule is anti-cycling: each basis repeats at most once, so the iteration count is bounded by the finite number of bases.
	for {
		enter := -1
		for j := 0; j < t.n; j++ {
			if !t.block[j] && t.cost[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		var best *big.Rat
		ratio := new(big.Rat)
		for i := 0; i < t.m; i++ {
			aie := t.a[i][enter]
			if aie == nil || aie.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.at(i, t.n), aie)
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				if best == nil {
					best = new(big.Rat)
				}
				best.Set(ratio)
			}
		}
		if leave < 0 {
			return false
		}
		t.pivot(leave, enter)
	}
}

func (t *ratTableau) pivot(r, c int) {
	pr := t.a[r]
	inv := new(big.Rat).Inv(pr[c])
	for j := 0; j <= t.n; j++ {
		if pr[j] != nil && pr[j].Sign() != 0 {
			pr[j].Mul(pr[j], inv)
		}
	}
	pr[c] = big.NewRat(1, 1)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == nil || f.Sign() == 0 {
			continue
		}
		fc := new(big.Rat).Set(f)
		row := t.a[i]
		for j := 0; j <= t.n; j++ {
			if pr[j] == nil || pr[j].Sign() == 0 {
				continue
			}
			if row[j] == nil {
				row[j] = new(big.Rat)
			}
			row[j].Sub(row[j], tmp.Mul(fc, pr[j]))
		}
		row[c] = new(big.Rat)
	}
	if f := t.cost[c]; f.Sign() != 0 {
		fc := new(big.Rat).Set(f)
		for j := 0; j <= t.n; j++ {
			if pr[j] == nil || pr[j].Sign() == 0 {
				continue
			}
			t.cost[j].Sub(t.cost[j], tmp.Mul(fc, pr[j]))
		}
		t.cost[c] = new(big.Rat)
	}
	t.basis[r] = c
}

func (t *ratTableau) driveOutArtificials(artStart int) {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		for j := 0; j < artStart; j++ {
			if t.a[i][j] != nil && t.a[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
	}
}

func (t *ratTableau) solution(n int) []*big.Rat {
	z := make([]*big.Rat, n)
	for j := range z {
		z[j] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < n {
			z[b] = new(big.Rat).Set(t.at(i, t.n))
		}
	}
	return z
}
