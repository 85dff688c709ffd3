package lp

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// blandOnly solves p with the rational Bland simplex alone: the reference
// every certified answer must match bit for bit.
func blandOnly(p Problem) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	return solveBland(p, marginRows(p))
}

// agreeWithBland requires SolveMaxMarginExact to return the same error and
// a bit-identical X as the Bland-only path, and reports whether the
// certificate (rather than the fallback) produced the answer.
func agreeWithBland(t *testing.T, name string, p Problem) (certified bool) {
	t.Helper()
	got, errGot := SolveMaxMarginExact(p)
	want, errWant := blandOnly(p)
	if !errors.Is(errGot, errWant) || !errors.Is(errWant, errGot) {
		t.Fatalf("%s: err = %v, Bland-only err = %v", name, errGot, errWant)
	}
	if errGot != nil {
		if !got.Fallback {
			t.Fatalf("%s: error %v returned without running the rational simplex", name, errGot)
		}
		return false
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: len(X) = %d, want %d", name, len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: X[%d] = %v (%#x), Bland-only %v (%#x); fallback=%v",
				name, j, got.X[j], math.Float64bits(got.X[j]), want.X[j], math.Float64bits(want.X[j]), got.Fallback)
		}
	}
	if math.Float64bits(got.Margin) != math.Float64bits(want.Margin) {
		t.Fatalf("%s: margin %v, Bland-only %v", name, got.Margin, want.Margin)
	}
	return !got.Fallback
}

// randomMarginLP draws a margin LP shaped like a Clarkson sample: rows
// (1, t, t², …) at reduced inputs t, intervals around a ground-truth
// polynomial, and widths spanning wide, narrow and near-degenerate ones
// (a few ulps of the value, as exp10's samples have). With probability
// 1/2 the sample carries the r = 0 equality row that pins C1, as exp2's
// do.
func randomMarginLP(rng *rand.Rand, k int) Problem {
	truth := make([]float64, k)
	for j := range truth {
		truth[j] = rng.NormFloat64() / float64(int(1)<<j)
	}
	p := Problem{NumVars: k}
	if rng.Intn(2) == 0 {
		eq := make([]float64, k)
		eq[0] = 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: eq, Lo: truth[0], Hi: truth[0]})
	}
	m := 2 + rng.Intn(4*k+4)
	for i := 0; i < m; i++ {
		x := math.Ldexp(float64(rng.Intn(1<<12)-1<<11), -12) // dyadic in [-1/2, 1/2)
		coeffs := make([]float64, k)
		v, pow := 0.0, 1.0
		for j := 0; j < k; j++ {
			coeffs[j] = pow
			v += truth[j] * pow
			pow *= x
		}
		var w float64
		switch rng.Intn(3) {
		case 0:
			w = math.Ldexp(1+rng.Float64(), -8-rng.Intn(16))
		case 1:
			w = math.Ldexp(1+rng.Float64(), -30-rng.Intn(12))
		default:
			w = float64(1+rng.Intn(4)) * ulp(v) // near-degenerate
		}
		off := w * (rng.Float64() - 0.5)
		p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Lo: v + off - w, Hi: v + off + w})
	}
	return p
}

func ulp(v float64) float64 {
	return math.Nextafter(math.Abs(v), math.Inf(1)) - math.Abs(v)
}

// TestCertifiedMatchesBland is the certificate's contract: on random
// margin LPs with k = 1..5, SolveMaxMarginExact returns exactly what the
// rational Bland simplex alone returns — the same error, bit-identical X —
// whichever way it got there. These samples are built to be hard for the
// float simplex, so many of its bases are off by a near-tie and fall back;
// the floor only guards against a certificate that never fires.
func TestCertifiedMatchesBland(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	trials := 100
	if testing.Short() {
		trials = 30
	}
	certified := 0
	for trial := 0; trial < trials; trial++ {
		k := 1 + trial%5
		if agreeWithBland(t, "random", randomMarginLP(rng, k)) {
			certified++
		}
	}
	t.Logf("certified %d of %d", certified, trials)
	if certified < trials/5 {
		t.Errorf("certificate closed only %d of %d solves", certified, trials)
	}
}

// TestCertificateFallbacks builds LPs the certificate must decline. Each
// falls back to the rational simplex and still agrees with it.
func TestCertificateFallbacks(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
		// floatErr is runFloat's verdict on the case, pinning that the case
		// exercises the path it is named for.
		floatErr error
	}{
		{
			// x0 fixes the margin at 1/3; x1 ∈ [0, 100] then has a whole
			// range of optimal values, so no basis is strictly
			// dual-feasible.
			name: "dual-degenerate",
			p: Problem{NumVars: 2, Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Lo: 0, Hi: 2},
				{Coeffs: []float64{1, 0}, Lo: 1, Hi: 5},
				{Coeffs: []float64{0, 1}, Lo: 0, Hi: 100},
			}},
		},
		{
			// x1 appears in no row: it is non-basic, not determined by the
			// basis.
			name: "free-column",
			p: Problem{NumVars: 2, Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Lo: 0, Hi: 2},
			}},
		},
		{
			// Bounds ~2^37 times the coefficients shrink every equilibrated
			// entry of the x column below the pivot tolerance while its
			// phase-1 reduced cost still prices it in: the ratio test finds
			// no pivot and phase 1 stalls.
			name:     "phase-1 stall",
			p:        stallLP(),
			floatErr: ErrNumeric,
		},
		{
			name: "float-infeasible",
			p: Problem{NumVars: 1, Constraints: []Constraint{
				{Coeffs: []float64{1}, Lo: 0, Hi: 0},
				{Coeffs: []float64{1}, Lo: 1, Hi: 1},
			}},
			floatErr: ErrInfeasible,
		},
		{
			// The equalities disagree by 2^-40, inside the float phase-1
			// tolerance: the float simplex calls the sample feasible, and
			// only the exact residual check of the basic artificial
			// catches it.
			name: "exact-infeasible",
			p: Problem{NumVars: 2, Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Lo: 1, Hi: 1},
				{Coeffs: []float64{1, 0}, Lo: 1 + 0x1p-40, Hi: 1 + 0x1p-40},
				{Coeffs: []float64{1, 1}, Lo: 0, Hi: 4},
			}},
		},
	}
	for _, tc := range cases {
		p := tc.p
		if _, _, err := runFloat(marginRows(p), p.NumVars); err != tc.floatErr {
			t.Fatalf("%s: float simplex err = %v, want %v", tc.name, err, tc.floatErr)
		}
		if agreeWithBland(t, tc.name, p) {
			t.Errorf("%s: certified, want a fallback to the rational simplex", tc.name)
		}
	}
}

// stallLP is a k = 1 sample whose equilibrated x column lies entirely
// below the float simplex's pivot tolerance.
func stallLP() Problem {
	p := Problem{NumVars: 1}
	for i := 0; i < 120; i++ {
		c := 0x1p37 + float64(i)/4
		p.Constraints = append(p.Constraints, Constraint{Coeffs: []float64{1}, Lo: c - 64, Hi: c + 64})
	}
	return p
}

// TestInfeasibleOnlyFromRationalPath pins that ErrInfeasible, the verdict
// that lets Clarkson cut the whole search, comes only from the rational
// simplex: whenever SolveMaxMarginExact reports it, the fallback ran and
// the Bland-only path agrees.
func TestInfeasibleOnlyFromRationalPath(t *testing.T) {
	for _, p := range []Problem{
		{NumVars: 1, Constraints: []Constraint{
			{Coeffs: []float64{1}, Lo: 0, Hi: 0},
			{Coeffs: []float64{1}, Lo: 1, Hi: 1},
		}},
		{NumVars: 2, Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Lo: 1, Hi: 1},
			{Coeffs: []float64{1, 0}, Lo: 1 + 0x1p-40, Hi: 1 + 0x1p-40},
		}},
	} {
		sol, err := SolveMaxMarginExact(p)
		if err != ErrInfeasible {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
		if !sol.Fallback {
			t.Errorf("ErrInfeasible reported without the rational simplex")
		}
		if _, err := blandOnly(p); err != ErrInfeasible {
			t.Errorf("Bland-only err = %v, want ErrInfeasible", err)
		}
	}
}

// TestSolveFractionFree checks the Bareiss solver against big.Rat
// elimination on random integer systems, singular ones included.
func TestSolveFractionFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%8
		a := make([][]*big.Int, n)
		b := make([]*big.Int, n)
		ra := make([][]*big.Rat, n)
		rb := make([]*big.Rat, n)
		for i := range a {
			a[i] = make([]*big.Int, n)
			ra[i] = make([]*big.Rat, n)
			for j := range a[i] {
				v := big.NewInt(rng.Int63n(41) - 20)
				if rng.Intn(3) == 0 {
					v.Lsh(v, uint(rng.Intn(80)))
				}
				a[i][j], ra[i][j] = v, new(big.Rat).SetInt(v)
			}
			b[i] = big.NewInt(rng.Int63n(2001) - 1000)
			rb[i] = new(big.Rat).SetInt(b[i])
		}
		if trial%7 == 0 && n > 1 { // make row n-1 a copy of row 0: singular
			for j := range a[0] {
				a[n-1][j].Set(a[0][j])
				ra[n-1][j].Set(ra[0][j])
			}
		}
		want, wantOK := ratSolve(ra, rb)
		num, den, ok := solveFractionFree(a, b)
		if ok != wantOK {
			t.Fatalf("trial %d: ok = %v, want %v", trial, ok, wantOK)
		}
		if !ok {
			continue
		}
		if den.Sign() <= 0 {
			t.Fatalf("trial %d: den = %v, want > 0", trial, den)
		}
		for i := range num {
			if got := new(big.Rat).SetFrac(num[i], den); got.Cmp(want[i]) != 0 {
				t.Fatalf("trial %d: z[%d] = %v, want %v", trial, i, got, want[i])
			}
		}
	}
}

// ratSolve is textbook Gaussian elimination over big.Rat.
func ratSolve(a [][]*big.Rat, b []*big.Rat) ([]*big.Rat, bool) {
	n := len(a)
	for s := 0; s < n; s++ {
		p := s
		for p < n && a[p][s].Sign() == 0 {
			p++
		}
		if p == n {
			return nil, false
		}
		a[s], a[p], b[s], b[p] = a[p], a[s], b[p], b[s]
		for i := 0; i < n; i++ {
			if i == s || a[i][s].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(a[i][s], a[s][s])
			for j := s; j < n; j++ {
				a[i][j].Sub(a[i][j], new(big.Rat).Mul(f, a[s][j]))
			}
			b[i].Sub(b[i], new(big.Rat).Mul(f, b[s]))
		}
	}
	z := make([]*big.Rat, n)
	for i := range z {
		z[i] = new(big.Rat).Quo(b[i], a[i][i])
	}
	return z, true
}
