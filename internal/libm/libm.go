// Package libm is the generated RLIBM-Prog math library: one progressive
// polynomial implementation per elementary function, producing correctly
// rounded results for every format from 10 to 25 bits (8 exponent bits)
// under all five IEEE rounding modes via full evaluation, and for bfloat16
// and tensorfloat32 under round-to-nearest via truncated (progressive)
// evaluation.
//
// The coefficient tables live in zz_generated_*.go files emitted by
// cmd/rlibm-gen; regenerating them reruns the whole pipeline. The RLibm-All
// piecewise baseline tables (zz_baseline_*.go) are registered alongside for
// the comparison experiments.
package libm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
)

// Sentinel errors of the lookup paths, matchable with errors.Is. The
// returned errors wrap these with the function name; every wrapped instance
// is built once at package init, so a missing-table miss on a hot serving
// path allocates nothing.
var (
	// ErrNoTables reports that progressive tables are not registered for
	// the function (run cmd/rlibm-gen -emit internal/libm).
	ErrNoTables = errors.New("no generated tables")
	// ErrNoBaseline reports that RLibm-All baseline tables are not
	// registered (run cmd/rlibm-gen -baseline -emit internal/libm).
	ErrNoBaseline = errors.New("no baseline tables")
	// ErrTooWide reports an output format wider than the generated levels.
	ErrTooWide = errors.New("format wider than the generated levels")
)

// Per-function wrapped sentinels, precomputed so error paths are
// allocation-free. The last slot serves out-of-range Func values.
var (
	errNoTables   [bigmath.NumFuncs + 1]error
	errNoBaseline [bigmath.NumFuncs + 1]error
	errTooWide    [bigmath.NumFuncs + 1]error
)

func init() {
	for fn := bigmath.Func(0); fn <= bigmath.NumFuncs; fn++ {
		name := "unknown function"
		if fn < bigmath.NumFuncs {
			name = fn.String()
		}
		errNoTables[fn] = fmt.Errorf("libm: %s: %w (run cmd/rlibm-gen -emit)", name, ErrNoTables)
		errNoBaseline[fn] = fmt.Errorf("libm: %s: %w (run cmd/rlibm-gen -baseline -emit)", name, ErrNoBaseline)
		errTooWide[fn] = fmt.Errorf("libm: %s: %w", name, ErrTooWide)
	}
}

// errFor clamps fn into the precomputed error tables.
func errFor(table *[bigmath.NumFuncs + 1]error, fn bigmath.Func) error {
	if fn < 0 || fn >= bigmath.NumFuncs {
		fn = bigmath.NumFuncs
	}
	return table[fn]
}

var (
	progressive [bigmath.NumFuncs]*gen.Result
	rlibmAll    [bigmath.NumFuncs]*gen.Result
)

// register is called by the generated progressive-polynomial files.
func register(res *gen.Result) { progressive[res.Fn] = res }

// registerBaseline is called by the generated RLibm-All baseline files.
func registerBaseline(res *gen.Result) { rlibmAll[res.Fn] = res }

// Progressive returns the RLIBM-Prog implementation of fn, or an error
// wrapping ErrNoTables if its tables have not been generated.
func Progressive(fn bigmath.Func) (*gen.Result, error) {
	if fn < 0 || fn >= bigmath.NumFuncs || progressive[fn] == nil {
		return nil, errFor(&errNoTables, fn)
	}
	return progressive[fn], nil
}

// RLibmAll returns the RLibm-All piecewise baseline implementation of fn,
// or an error wrapping ErrNoBaseline.
func RLibmAll(fn bigmath.Func) (*gen.Result, error) {
	if fn < 0 || fn >= bigmath.NumFuncs || rlibmAll[fn] == nil {
		return nil, errFor(&errNoBaseline, fn)
	}
	return rlibmAll[fn], nil
}

// Have reports whether progressive tables exist for fn.
func Have(fn bigmath.Func) bool {
	return fn >= 0 && fn < bigmath.NumFuncs && progressive[fn] != nil
}

// HaveBaseline reports whether baseline tables exist for fn.
func HaveBaseline(fn bigmath.Func) bool {
	return fn >= 0 && fn < bigmath.NumFuncs && rlibmAll[fn] != nil
}

// levelEvaluators caches each function's compiled level evaluators,
// built on first use: the registered tables are immutable.
var levelEvaluators [bigmath.NumFuncs]struct {
	once sync.Once
	evs  []*gen.Evaluator
	err  error
}

// evaluators returns fn's progressive table and its compiled evaluator per
// level — the code verify certified.
func evaluators(fn bigmath.Func) (*gen.Result, []*gen.Evaluator, error) {
	res, err := Progressive(fn)
	if err != nil {
		return nil, nil, err
	}
	c := &levelEvaluators[fn]
	c.once.Do(func() {
		c.evs = make([]*gen.Evaluator, len(res.Levels))
		for li := range c.evs {
			if c.evs[li], c.err = res.Compile(li); c.err != nil {
				return
			}
		}
	})
	return res, c.evs, c.err
}

// Eval computes fn(x) correctly rounded into out under mode, serving the
// query from the progressive level that owns out. x must be a value of out.
func Eval(fn bigmath.Func, x float64, out fp.Format, mode fp.Mode) (uint64, error) {
	res, evs, err := evaluators(fn)
	if err != nil {
		return 0, err
	}
	li, ok := res.ServingLevel(out, mode)
	if !ok {
		return 0, errFor(&errTooWide, fn)
	}
	return out.FromFloat64(evs[li].Value(x), mode), nil
}

// Bfloat16 computes fn over a bfloat16 bit pattern with round-to-nearest,
// evaluating only the progressive prefix of the polynomial.
func Bfloat16(fn bigmath.Func, bits uint16) (uint16, error) {
	out, err := Eval(fn, fp.Bfloat16.Decode(uint64(bits)), fp.Bfloat16, fp.RoundNearestEven)
	return uint16(out), err
}

// TensorFloat32 computes fn over a tensorfloat32 bit pattern (19 bits) with
// round-to-nearest.
func TensorFloat32(fn bigmath.Func, bits uint32) (uint32, error) {
	out, err := Eval(fn, fp.TensorFloat32.Decode(uint64(bits)), fp.TensorFloat32, fp.RoundNearestEven)
	return uint32(out), err
}

// Largest computes fn over a bit pattern of the library's largest generated
// format under any of the five standard rounding modes.
func Largest(fn bigmath.Func, bits uint64, mode fp.Mode) (uint64, error) {
	res, evs, err := evaluators(fn)
	if err != nil {
		return 0, err
	}
	last := len(res.Levels) - 1
	f := res.Levels[last]
	return f.FromFloat64(evs[last].Value(f.Decode(bits)), mode), nil
}

// LargestFormat returns the widest generated format (the "float" of the
// scaled experiments), or false when no tables are registered.
func LargestFormat() (fp.Format, bool) {
	for _, res := range progressive {
		if res != nil {
			return res.Levels[len(res.Levels)-1], true
		}
	}
	return fp.Format{}, false
}
