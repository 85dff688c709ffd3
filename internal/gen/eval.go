package gen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/fp"
	"repro/internal/reduction"
)

// LevelFor returns the index of the level that serves queries for the
// format f: the smallest level whose width is ≥ f's. ok is false when f is
// wider than the largest level.
func (res *Result) LevelFor(f fp.Format) (int, bool) {
	for li, lvl := range res.Levels {
		if f.Bits() <= lvl.Bits() {
			return li, true
		}
	}
	return 0, false
}

// ServingLevel picks the level whose evaluation is *guaranteed* for a
// query (f, mode): a lower level's truncated evaluation is certified only
// for that level's exact format under round-to-nearest-even (its
// constraints are rn rounding intervals); every other format/mode
// combination relies on the round-to-odd theorem and must use the largest
// level's full evaluation. ok is false when f is wider than the largest
// level.
func (res *Result) ServingLevel(f fp.Format, mode fp.Mode) (int, bool) {
	last := len(res.Levels) - 1
	if f.Bits() > res.Levels[last].Bits() {
		return 0, false
	}
	if mode == fp.RoundNearestEven || res.ProgressiveRO {
		for li, lvl := range res.Levels[:last] {
			if res.ProgressiveRO {
				// RO-generated lower levels serve every format up to their
				// width under every mode.
				if f.Bits() <= lvl.Bits() {
					return li, true
				}
				continue
			}
			if lvl == f {
				return li, true
			}
		}
	}
	return last, true
}

// Evaluator is one level of a generated Result compiled for evaluation,
// and the only code that evaluates a Result: verify certifies it, and
// libm, the batch kernels of internal/eval (hence the server), fig4 and
// the campaign run it. Compile does every per-level decision once — the
// level's truncated term counts, piece boundaries and coefficient prefixes
// snapshotted into flat contiguous arrays, the reduction scheme resolved
// (reduction.Lowered), the special-input list rebuilt as an open-addressed
// bit-pattern hash — so Value runs with zero allocations, zero interface
// calls and no sort.Search. An Evaluator is immutable and safe for
// concurrent use; it does not see later changes to the Result
// (AddSpecial), so callers that patch a Result compile it again.
type Evaluator struct {
	red      reduction.Lowered
	numPolys int
	polys    [2]flatPoly
	specials specialTable
}

// Compile builds the evaluator of level li: inputs handed to it must be
// values of res.Levels[li] (or of any narrower format the level serves).
// It fails on a level out of range and on a malformed table: a kernel
// count the function's scheme does not have, a structure other than
// dense/even/odd, a kernel without pieces or without term counts for li,
// or a special-input key the scheme never sends to the table.
func (res *Result) Compile(li int) (*Evaluator, error) {
	if li < 0 || li >= len(res.Levels) {
		return nil, fmt.Errorf("gen: level %d out of range [0,%d)", li, len(res.Levels))
	}
	red := reduction.Lower(res.Fn)
	if n := len(res.Kernels); n != red.NumPolys() {
		return nil, fmt.Errorf("gen: %v: %d kernel polynomials (want %d)", res.Fn, n, red.NumPolys())
	}
	if li >= len(res.Specials) {
		return nil, fmt.Errorf("gen: %v: level %d has no special-input table", res.Fn, li)
	}
	e := &Evaluator{red: red, numPolys: red.NumPolys()}
	for pi := range res.Kernels {
		flat, err := flatten(&res.Kernels[pi], li)
		if err != nil {
			return nil, fmt.Errorf("gen: %v kernel %d: %w", res.Fn, pi, err)
		}
		e.polys[pi] = flat
	}
	st, err := buildSpecials(res.Specials[li])
	if err != nil {
		return nil, fmt.Errorf("gen: %v level %d: %w", res.Fn, li, err)
	}
	e.specials = st
	return e, nil
}

// Value returns fn(x) before the final rounding: the special path for
// inputs the reduction rejects, the special-input table, or range
// reduction, structured Horner over the level's truncated prefix and
// output compensation. Rounding Value into any format and mode the level
// serves is the correctly rounded result.
func (e *Evaluator) Value(x float64) float64 {
	v, _ := e.ValuePath(x)
	return v
}

// ValuePath is Value that also reports whether x took a special path (the
// reduction's or the table's) instead of the polynomials; the batch
// kernels count the two.
//
//evalhot:loop
func (e *Evaluator) ValuePath(x float64) (v float64, special bool) {
	ctx, regular := e.red.Reduce(x)
	if !regular {
		return e.red.Special(x), true
	}
	if proxy, ok := e.specials.lookup(math.Float64bits(x)); ok {
		return proxy, true
	}
	y0 := e.polys[0].eval(ctx.R)
	var y1 float64
	if e.numPolys > 1 {
		y1 = e.polys[1].eval(ctx.R)
	}
	return e.red.Compensate(ctx, y0, y1), false
}

// Eval is a one-off query: level li compiled, evaluated at x and rounded
// into out under mode. Anything that evaluates more than a handful of
// inputs compiles once and rounds Value itself. Eval panics when level li
// does not compile.
func (res *Result) Eval(x float64, li int, out fp.Format, mode fp.Mode) uint64 {
	e, err := res.Compile(li)
	if err != nil {
		panic(err)
	}
	return out.FromFloat64(e.Value(x), mode)
}

// flatPoly is one kernel polynomial flattened for evaluation: the
// truncated coefficient prefixes of every piece concatenated into one
// contiguous array, piece upper bounds in a parallel slice, and the
// monomial structure lowered to two booleans.
type flatPoly struct {
	bounds []float64 // piece i owns bounds[i-1] <= r < bounds[i]; the last piece also owns r >= its bound
	coeffs []float64 // concatenated truncated coefficient prefixes
	off    []int     // piece i's coefficients are coeffs[off[i]:off[i+1]]
	square bool      // stride-2 structure: Horner runs on r²
	odd    bool      // offset-1 structure: result multiplied by r
}

// piece returns the index of the piece owning r, by binary search over the
// consecutive boundaries — the rule the generator assigns constraints by —
// so the RLibm-All baselines' hundreds of pieces cost a few comparisons.
//
//evalhot:loop
func (f *flatPoly) piece(r float64) int {
	lo, hi := 0, len(f.bounds)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r < f.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// eval evaluates the flattened polynomial at the reduced input r, exactly
// as poly.Structure.Eval evaluates the owning piece's truncated prefix.
//
//evalhot:loop
func (f *flatPoly) eval(r float64) float64 {
	i := f.piece(r)
	c := f.coeffs[f.off[i]:f.off[i+1]]
	u := r
	if f.square {
		u = r * r
	}
	var v float64
	if n := len(c); n > 0 {
		v = c[n-1]
		for j := n - 2; j >= 0; j-- {
			v = v*u + c[j]
		}
	}
	if f.odd {
		v = r * v
	}
	return v
}

// flatten snapshots one kernel polynomial's pieces at level li.
func flatten(kp *KernelPoly, li int) (flatPoly, error) {
	s := kp.Structure
	if s.Stride < 1 || s.Stride > 2 || s.Offset < 0 || s.Offset > 1 {
		return flatPoly{}, fmt.Errorf("unsupported structure %+v", s)
	}
	if len(kp.Pieces) == 0 {
		return flatPoly{}, errors.New("no pieces")
	}
	f := flatPoly{
		square: s.Stride == 2,
		odd:    s.Offset == 1,
		off:    make([]int, 1, len(kp.Pieces)+1),
	}
	for _, p := range kp.Pieces {
		if li >= len(p.LevelTerms) {
			return flatPoly{}, fmt.Errorf("piece has %d level term counts, level %d requested", len(p.LevelTerms), li)
		}
		terms := p.LevelTerms[li]
		if terms > len(p.Coeffs) {
			terms = len(p.Coeffs) // HornerTerms clamps the same way
		}
		f.coeffs = append(f.coeffs, p.Coeffs[:terms]...)
		f.off = append(f.off, len(f.coeffs))
		f.bounds = append(f.bounds, p.Hi)
	}
	return f, nil
}

// specialEmpty is the empty-slot sentinel of the special-input hash table:
// the bit pattern of +0, which can never key a special entry (every special
// input passed Reduce as a regular value, and ±0/NaN/±∞ never do).
const specialEmpty = 0

// specialTable is a level's special-input list as an open-addressed,
// linearly probed hash table keyed on input bit patterns, sized to a power
// of two at most half full, so lookups terminate in a couple of
// data-dependent probes with no comparisons against NaN-hostile float
// keys.
type specialTable struct {
	mask uint64
	keys []uint64
	vals []float64
}

// specialHash mixes the input bit pattern (the 64-bit finalizer of
// MurmurHash3 — deterministic, seedless, and uniform enough for tables of a
// few dozen keys).
func specialHash(b uint64) uint64 {
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	b ^= b >> 33
	return b
}

// buildSpecials compiles one level's special-input list into a hash table.
func buildSpecials(sp []SpecialInput) (specialTable, error) {
	size := 1
	for size < 2*len(sp) {
		size <<= 1
	}
	t := specialTable{
		mask: uint64(size - 1),
		keys: make([]uint64, size),
		vals: make([]float64, size),
	}
	for _, s := range sp {
		bits := math.Float64bits(s.X)
		if bits == specialEmpty || math.IsNaN(s.X) || math.IsInf(s.X, 0) {
			return specialTable{}, fmt.Errorf("special-input key %v is not a regular input", s.X)
		}
		i := specialHash(bits) & t.mask
		for t.keys[i] != specialEmpty && t.keys[i] != bits {
			i = (i + 1) & t.mask
		}
		t.keys[i] = bits
		t.vals[i] = s.Proxy
	}
	return t, nil
}

// lookup returns the proxy for the input bit pattern, if present. At most
// half the slots are occupied, so the probe loop always terminates at an
// empty slot.
//
//evalhot:loop
func (t *specialTable) lookup(bits uint64) (float64, bool) {
	i := specialHash(bits) & t.mask
	for k := t.keys[i]; k != specialEmpty; k = t.keys[i] {
		if k == bits {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// CoefficientBytes is the Table 1 storage metric: 8 bytes per stored
// coefficient across all kernels and pieces.
func (res *Result) CoefficientBytes() int {
	n := 0
	for _, k := range res.Kernels {
		for _, p := range k.Pieces {
			n += 8 * len(p.Coeffs)
		}
	}
	return n
}

// NumPieces returns the sub-domain counts per kernel.
func (res *Result) NumPieces() []int {
	out := make([]int, len(res.Kernels))
	for i, k := range res.Kernels {
		out[i] = len(k.Pieces)
	}
	return out
}

// MaxDegree returns the maximum polynomial degree per kernel at level li.
func (res *Result) MaxDegree(li int) []int {
	out := make([]int, len(res.Kernels))
	for i, k := range res.Kernels {
		d := 0
		for _, p := range k.Pieces {
			if dd := k.Structure.Degree(p.LevelTerms[li]); dd > d {
				d = dd
			}
		}
		out[i] = d
	}
	return out
}

// TermsAt returns the per-kernel term counts at level li (max over pieces).
func (res *Result) TermsAt(li int) []int {
	out := make([]int, len(res.Kernels))
	for i, k := range res.Kernels {
		t := 0
		for _, p := range k.Pieces {
			if p.LevelTerms[li] > t {
				t = p.LevelTerms[li]
			}
		}
		out[i] = t
	}
	return out
}

// NumSpecials returns the per-level count of special-case inputs.
func (res *Result) NumSpecials() []int {
	out := make([]int, len(res.Specials))
	for i, s := range res.Specials {
		out[i] = len(s)
	}
	return out
}

// AddSpecial patches one input at one level (used by verification repair).
func (res *Result) AddSpecial(li int, x, proxy float64) {
	sp := res.Specials[li]
	i := sort.Search(len(sp), func(i int) bool { return sp[i].X >= x })
	//lint:ignore floateq special-table keys store the exact input bits; the lookup hit test is bit-exact by construction.
	if i < len(sp) && sp[i].X == x {
		sp[i].Proxy = proxy
		return
	}
	sp = append(sp, SpecialInput{})
	copy(sp[i+1:], sp[i:])
	sp[i] = SpecialInput{X: x, Proxy: proxy}
	res.Specials[li] = sp
}
