package lp

import (
	"math"
	"math/big"
	"math/bits"
)

// certify proves, in exact arithmetic, that basis — the final basis of the
// float64 simplex over the margin rows of a k-variable problem — is an
// optimal basis of the margin LP at which the optimal x is unique, and
// returns that x rounded to the nearest float64s. It returns false when no
// such certificate exists; the caller then runs the rational simplex.
//
// The argument runs in the LP's free form: x and δ are free, every slack
// is non-negative and every artificial is fixed at 0 (phase 2 blocks
// them). A u_j/v_j or d+/d− pair is one free variable, and its two
// columns are negatives of each other, so their reduced costs are too.
// The certificate requires:
//
//   - every free variable basic through exactly one of its halves. If
//     neither half is basic, their reduced costs c̄ and −c̄ cannot both be
//     positive, so the optimum would be dual-degenerate;
//   - every other basic column a slack of an inequality row or the
//     artificial of an equality row, which leaves exactly k+1 tight rows.
//     These are the rows whose own slack or artificial is non-basic. The
//     square system they form is solved exactly, fraction-free;
//   - primal feasibility at that point: every basic slack ≥ 0 and every
//     basic artificial = 0, that is, the equality row holds exactly;
//   - strict dual feasibility: the duals y solve the transposed system for
//     the objective min −δ, and every non-basic slack's reduced cost,
//     −y_i·slack_i, is strictly positive.
//
// The objective of any feasible point then exceeds the optimum by Σ c̄_j
// s_j over the non-basic slacks, so every optimum has them at 0 and the
// basic values are forced. The optimum is unique, and the rational Bland
// simplex, which finds an optimum of the same LP, returns the same x.
func certify(rows []marginRow, k int, basis []int) ([]float64, bool) {
	nStruct := 2*k + 2
	artStart := nStruct + len(rows)
	nFree := k + 1

	covered := make([]bool, len(rows)) // the row's own slack or artificial is basic
	basicFree := make([]bool, nFree)
	for _, c := range basis {
		switch {
		case c < nStruct:
			f := freeVar(c, k)
			if basicFree[f] {
				return nil, false // both halves basic: singular
			}
			basicFree[f] = true
		case c < artStart:
			i := c - nStruct
			if rows[i].slack == 0 || covered[i] {
				return nil, false // an equality row's zero slack column
			}
			covered[i] = true
		default:
			i := c - artStart
			if rows[i].slack != 0 || covered[i] {
				// An inequality row's artificial is basic, so its slack is
				// non-basic with reduced cost 0.
				return nil, false
			}
			covered[i] = true
		}
	}
	for _, b := range basicFree {
		if !b {
			return nil, false
		}
	}
	var tight []int
	for i := range rows {
		if !covered[i] {
			tight = append(tight, i)
		}
	}
	if len(tight) != nFree {
		return nil, false
	}

	// Primal: the tight rows hold with zero slack, a_T·(x, δ) = b_T.
	a := make([][]*big.Int, nFree)
	b := make([]*big.Int, nFree)
	at := make([][]*big.Int, nFree) // the transpose, for the duals
	for f := range at {
		at[f] = make([]*big.Int, nFree)
	}
	for ti, i := range tight {
		r := freeRow(rows[i], k)
		a[ti], b[ti] = r[:nFree], r[nFree]
		for f := 0; f < nFree; f++ {
			at[f][ti] = new(big.Int).Set(r[f])
		}
	}
	num, den, ok := solveFractionFree(a, b)
	if !ok {
		return nil, false
	}

	// Dual: y solves a_Tᵀ·y = c with c = (0, …, 0, −1), the objective
	// min −δ restricted to the basic free variables. Each tight row was
	// scaled by a positive power of two, which scales its dual by the
	// same: signs, all the test needs, are unchanged.
	c := make([]*big.Int, nFree)
	for f := range c {
		c[f] = new(big.Int)
	}
	c[k].SetInt64(-1)
	y, _, ok := solveFractionFree(at, c)
	if !ok {
		return nil, false
	}
	for ti, i := range tight {
		if s := int(rows[i].slack); s != 0 && y[ti].Sign()*s >= 0 {
			return nil, false // reduced cost −y_i·slack_i not strictly positive
		}
	}

	// Primal feasibility of the covered rows: the residual b_i − a_i·(x, δ)
	// is the basic slack times its sign, or the basic artificial.
	res, tmp := new(big.Int), new(big.Int)
	for i, r := range rows {
		if !covered[i] {
			continue
		}
		v := freeRow(r, k)
		res.Mul(den, v[nFree])
		for f := 0; f < nFree; f++ {
			res.Sub(res, tmp.Mul(v[f], num[f]))
		}
		if s := int(r.slack); (s == 0 && res.Sign() != 0) || res.Sign()*s < 0 {
			return nil, false
		}
	}

	x := make([]float64, k)
	q := new(big.Rat)
	for j := range x {
		x[j], _ = q.SetFrac(num[j], den).Float64()
	}
	return x, true
}

// freeVar maps a structural column to its free variable: x_j for u_j and
// v_j, k for d+ and d−.
func freeVar(col, k int) int {
	switch {
	case col < k:
		return col
	case col < 2*k:
		return col - k
	default:
		return k
	}
}

// freeRow returns row r of the free form — the coefficients of x_0..x_{k-1}
// and δ, then the right-hand side — scaled by one power of two to
// integers.
func freeRow(r marginRow, k int) []*big.Int {
	v := make([]float64, 0, k+2)
	v = append(v, r.coef[:k]...)
	return dyadicInts(append(v, r.coef[2*k], r.rhs))
}

// dyadicInts scales vals by the smallest common power of two that makes
// them all integers. Every finite float64 is a dyadic rational, so the
// scaling is exact.
func dyadicInts(vals []float64) []*big.Int {
	mants := make([]int64, len(vals))
	exps := make([]int, len(vals))
	minExp := math.MaxInt
	for i, v := range vals {
		fr, e := math.Frexp(v) // v = fr·2^e, 0.5 ≤ |fr| < 1, or v = 0
		m := int64(fr * (1 << 53))
		if m == 0 {
			continue
		}
		tz := bits.TrailingZeros64(uint64(m))
		mants[i], exps[i] = m>>tz, e-53+tz
		if exps[i] < minExp {
			minExp = exps[i]
		}
	}
	out := make([]*big.Int, len(vals))
	for i, m := range mants {
		out[i] = big.NewInt(m)
		if m != 0 {
			out[i].Lsh(out[i], uint(exps[i]-minExp))
		}
	}
	return out
}

// solveFractionFree solves the n×n integer system a·z = b by fraction-free
// Gauss–Jordan elimination (Bareiss): after step s every entry is an
// (s+1)×(s+1) minor of [a | b], so each division by the previous pivot is
// exact and no fraction is ever normalized. It returns z = num/den with
// den > 0, or false when a is singular. It overwrites a and b.
func solveFractionFree(a [][]*big.Int, b []*big.Int) (num []*big.Int, den *big.Int, ok bool) {
	n := len(a)
	for i := range a {
		a[i] = append(a[i][:n:n], b[i])
	}
	prev := big.NewInt(1)
	t, rem := new(big.Int), new(big.Int)
	for s := 0; s < n; s++ {
		p := s
		for p < n && a[p][s].Sign() == 0 {
			p++
		}
		if p == n {
			return nil, nil, false
		}
		a[s], a[p] = a[p], a[s]
		piv := a[s]
		for i := 0; i < n; i++ {
			if i == s {
				continue
			}
			row := a[i]
			for j := 0; j <= n; j++ {
				if j == s {
					continue
				}
				// row[j] = (piv[s]·row[j] − row[s]·piv[j]) / prev
				row[j].Mul(row[j], piv[s])
				row[j].Sub(row[j], t.Mul(row[s], piv[j]))
				row[j].QuoRem(row[j], prev, rem)
				if rem.Sign() != 0 {
					return nil, nil, false // cannot happen: Sylvester's identity
				}
			}
			row[s].SetInt64(0)
		}
		prev.Set(piv[s])
	}
	// Every diagonal entry is now det(a) up to the row swaps' sign; the
	// augmented column holds det·z.
	den = prev
	num = make([]*big.Int, n)
	for i := range num {
		num[i] = a[i][n]
		if den.Sign() < 0 {
			num[i].Neg(num[i])
		}
	}
	den.Abs(den)
	return num, den, true
}
