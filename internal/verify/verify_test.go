package verify

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/oracle"
)

func smallResult(t *testing.T, fn bigmath.Func) *gen.Result {
	t.Helper()
	res, err := gen.Generate(fn, gen.Options{
		Levels: []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExhaustiveCleanImplementation(t *testing.T) {
	fn := bigmath.Log10
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatal(err)
	}
	impl := NewGenImpl(res)
	for _, f := range []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)} {
		var modes []fp.Mode
		if f.Bits() == 13 {
			modes = fp.StandardModes
		} else {
			modes = []fp.Mode{fp.RoundNearestEven}
		}
		for _, rep := range Exhaustive(impl, orc, f, modes, 0) {
			if !rep.Correct() {
				t.Errorf("%v", rep)
			}
			if rep.Checked != f.NumValues() {
				t.Errorf("checked %d of %d", rep.Checked, f.NumValues())
			}
		}
	}
}

// A corrupted coefficient must be detected, and small corruptions must be
// repairable into the special table.
func TestDetectAndRepairCorruption(t *testing.T) {
	fn := bigmath.Exp
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatal(err)
	}

	// Heavy corruption: scale the top coefficient. Exhaustive must light up.
	k := &res.Kernels[0]
	old := k.Pieces[0].Coeffs[0]
	k.Pieces[0].Coeffs[0] = old * (1 + 1e-3)
	impl := NewGenImpl(res)
	bad := 0
	for _, rep := range ExhaustiveLevel(res, orc, 1, []fp.Mode{fp.RoundNearestEven}, 0) {
		bad += len(rep.Mismatches)
	}
	if bad == 0 {
		t.Fatal("corruption not detected")
	}
	if _, err := Repair(res, orc, 0); err == nil {
		t.Fatal("heavy corruption unexpectedly repairable within budget")
	}
	k.Pieces[0].Coeffs[0] = old
	_ = impl

	// Light corruption: drop one special entry (if any); Repair restores it.
	for li := range res.Specials {
		if len(res.Specials[li]) > 0 {
			res.Specials[li] = res.Specials[li][1:]
			break
		}
	}
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatalf("light repair failed: %v", err)
	}
	for li := range res.Levels {
		modes := []fp.Mode{fp.RoundNearestEven}
		if li == 1 {
			modes = fp.StandardModes
		}
		for _, rep := range ExhaustiveLevel(res, orc, li, modes, 0) {
			if !rep.Correct() {
				t.Errorf("after repair: %v", rep)
			}
		}
	}
}

func TestSampledFindsCorpusMismatch(t *testing.T) {
	fn := bigmath.Sinh
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	if _, err := Repair(res, orc, 0); err != nil {
		t.Fatal(err)
	}
	impl := NewGenImpl(res)
	f := fp.MustFormat(13, 8)
	for _, rep := range Sampled(impl, orc, f, fp.StandardModes, 2000, 9, 0) {
		if !rep.Correct() {
			t.Errorf("%v", rep)
		}
	}
	// A broken impl (always +1) must fail immediately via the corpus.
	brokenReports := Sampled(brokenImpl{}, orc, f, []fp.Mode{fp.RoundNearestEven}, 10, 9, 0)
	if brokenReports[0].Correct() {
		t.Error("broken implementation passed sampling")
	}
}

type brokenImpl struct{}

func (brokenImpl) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return out.FromFloat64(math.Abs(x)+1, mode)
}

func TestReportString(t *testing.T) {
	r := Report{Format: fp.Bfloat16, Mode: fp.RoundNearestEven, Checked: 10}
	if r.String() == "" || !r.Correct() {
		t.Error("report formatting")
	}
	r.Mismatches = []uint64{1}
	if r.Correct() {
		t.Error("mismatch not reflected")
	}
}

// opaqueImpl hides the Impl NewGenImpl returns, so sweeps over it take the
// per-mode Bits path instead of the per-level evaluation.
type opaqueImpl struct{ Impl }

// sameReports fails t unless got and want agree in format, mode, count
// and mismatch list, order included.
func sameReports(t *testing.T, label string, got, want []Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Format != w.Format || g.Mode != w.Mode || g.Checked != w.Checked || !slices.Equal(g.Mismatches, w.Mismatches) {
			t.Errorf("%s: report %d = %v %v, want %v %v", label, i, g, g.Mismatches, w, w.Mismatches)
		}
	}
}

// pinHoisted checks that Exhaustive and Sampled report identically for a
// generated result evaluated once per serving level and for the same
// result asked per mode through an opaque wrapper. It returns the total
// number of exhaustive mismatches.
func pinHoisted(t *testing.T, res *gen.Result, orc *oracle.Oracle, f fp.Format, modes []fp.Mode) int {
	t.Helper()
	impl := NewGenImpl(res)
	label := fmt.Sprintf("%v %v", res.Fn, f)
	want := Exhaustive(opaqueImpl{impl}, orc, f, modes, 2)
	sameReports(t, label+" Exhaustive", Exhaustive(impl, orc, f, modes, 2), want)
	sameReports(t, label+" Sampled",
		Sampled(impl, orc, f, modes, 3000, 4, 2), Sampled(opaqueImpl{impl}, orc, f, modes, 3000, 4, 2))
	bad := 0
	for _, r := range want {
		bad += len(r.Mismatches)
	}
	return bad
}

// TestHoistedSweepMatchesPerModeBits pins the per-level evaluation of
// NewGenImpl's sweeps to the per-mode Bits loop: on the shipped exp2 at
// tensorfloat32 (rn is served by the truncated level, the other modes by
// the full one), on a ProgressiveRO result (lower levels serve every mode)
// and on a result with a corrupted special entry, so that mismatch lists
// are compared too.
func TestHoistedSweepMatchesPerModeBits(t *testing.T) {
	shipped, err := libm.Progressive(bigmath.Exp2)
	if err != nil {
		t.Fatal(err)
	}
	if bad := pinHoisted(t, shipped, oracle.New(bigmath.Exp2), fp.TensorFloat32, fp.StandardModes); bad != 0 {
		t.Errorf("shipped exp2: %d mismatches", bad)
	}

	ro, err := gen.Generate(bigmath.Exp2, gen.Options{
		Levels: []fp.Format{fp.MustFormat(11, 8), fp.MustFormat(13, 8)}, Seed: 5, ProgressiveRO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{10, 11, 12, 13} {
		pinHoisted(t, ro, oracle.New(bigmath.Exp2), fp.MustFormat(w, 8), fp.StandardModes)
	}

	// One wrong special at the largest level: every mode it serves fails.
	fn := bigmath.Log10
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	x := 1.5
	res.AddSpecial(len(res.Levels)-1, x, 2*res.EvalValue(x, len(res.Levels)-1))
	for _, f := range res.Levels {
		if bad := pinHoisted(t, res, orc, f, fp.StandardModes); bad == 0 {
			t.Errorf("%v: corrupted special not detected", f)
		}
	}
}

// TestExhaustiveLevelRangeMatchesEval pins ExhaustiveLevelRange, which
// evaluates each input once for all modes, to res.Eval called per mode.
func TestExhaustiveLevelRangeMatchesEval(t *testing.T) {
	fn := bigmath.Log10
	res := smallResult(t, fn)
	orc := oracle.New(fn)
	res.AddSpecial(0, 1.5, 2*res.EvalValue(1.5, 0))
	modes := fp.AllModes
	bad := 0
	for li, lvl := range res.Levels {
		lo, hi := uint64(100), lvl.NumValues()/2+7
		ext := lvl.Extend(2)
		want := make([]Report, len(modes))
		for i, m := range modes {
			want[i] = Report{Format: lvl, Mode: m}
		}
		for b := lo; b < hi; b++ {
			x := lvl.Decode(b)
			roVal := ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
			for i, m := range modes {
				want[i].Checked++
				if res.Eval(x, li, lvl, m) != lvl.FromFloat64(roVal, m) {
					want[i].Mismatches = append(want[i].Mismatches, b)
					bad++
				}
			}
		}
		sameReports(t, lvl.String(), ExhaustiveLevelRange(res, orc, li, modes, 2, lo, hi), want)
	}
	if bad == 0 {
		t.Error("corrupted special not detected")
	}
}
