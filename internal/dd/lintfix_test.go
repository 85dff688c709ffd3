package dd

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/bigmath"
)

// TestHiLoTables pins the argument-reduction hi/lo splits built by init.
// Their construction was rewritten to state big.Float precision explicitly
// (SetPrec before SetInt64/SetFloat64); each pair must still reproduce the
// exact 140-bit constant to well beyond double precision, with a hi part
// that carries at most 32 mantissa bits so N·hi stays exact.
func TestHiLoTables(t *testing.T) {
	tablesOnce.Do(initTables)
	check := func(name string, hi, lo float64, exact *big.Float, div int64) {
		t.Helper()
		if round32(hi) != hi {
			t.Errorf("%s: hi=%v is not 32-bit clean", name, hi)
		}
		want := new(big.Float).SetPrec(200).Quo(exact, new(big.Float).SetPrec(200).SetInt64(div))
		got := new(big.Float).SetPrec(200).Add(
			new(big.Float).SetPrec(53).SetFloat64(hi),
			new(big.Float).SetPrec(53).SetFloat64(lo))
		diff := new(big.Float).SetPrec(200).Sub(got, want)
		if diff.Sign() != 0 && diff.MantExp(nil)-want.MantExp(nil) > -80 {
			t.Errorf("%s: hi+lo differs from the exact constant above 2^-80 relative", name)
		}
	}
	check("ln2/64", ln2o64Hi, ln2o64Lo, bigmath.Ln2(140), 64)
	check("log10(2)/64", lg2o64Hi, lg2o64Lo, bigmath.Log10Of2(140), 64)
	if got := 64 / ln2DD.Hi; math.Abs(invLn2x64-got) != 0 {
		t.Errorf("invLn2x64 = %v, want %v", invLn2x64, got)
	}
}
