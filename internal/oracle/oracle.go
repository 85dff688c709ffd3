// Package oracle provides a fast correctly-rounding oracle for the ten
// elementary functions, layered on the arbitrary-precision bigmath package.
//
// RLIBM-Prog computes the oracle result of f(x) for every input of every
// representation of interest — hundreds of millions of MPFR calls in the
// paper's setting. The same enumeration in pure Go needs structural
// accelerations to stay laptop-feasible on one core; each is exact, not
// approximate:
//
//   - identity sharing: log(m·2^e) splits into a per-mantissa series value
//     (cached) plus an exact e·constant term; sinπ/cosπ reduce exactly to a
//     small set of z = |x| mod 2 values (cached);
//   - range clamps: exponential-family results beyond the target's finite
//     range round identically to a saturated proxy value;
//   - anchor shortcuts: where |f(x) − a| is provably below half an output
//     ulp of a representable anchor a (e^x near 1, sinh x near x, cosh x
//     and cosπ x near 1), the rounded result is decided directly from the
//     direction of the residual;
//   - double-double first step: the internal/dd kernel's value, widened by
//     its error bound dd.RelErrBound, decides the result whenever the whole
//     envelope rounds to one output value (CR-LIBM's two-step Ziv).
//
// A query whose dd envelope straddles a rounding boundary falls through
// to the identity-sharing caches (logs, sinπ/cosπ) or to the Ziv loop in
// bigmath.
//
// # Concurrency
//
// An Oracle is safe for concurrent use by multiple goroutines: the sharded
// enumeration and verification pipelines issue Result queries from every
// worker against one shared instance. The identity-sharing caches are
// lock-striped maps of immutable *big.Float values (two workers racing on
// the same key may both compute it; the values are deterministic, so either
// insertion is correct), and the Stats path counters are maintained with
// sync/atomic in cache-line-padded stripes, one picked per query by the
// input's exponent bits, so workers on different input ranges rarely write
// the same line. Stats() taken while queries are in flight returns a
// consistent-enough snapshot for reporting; quiesce all workers first when
// an exact total is required.
package oracle

import (
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/bigmath"
	"repro/internal/dd"
	"repro/internal/fault"
	"repro/internal/fp"
	"repro/internal/obs"
)

// cachePrec is the precision of cached per-mantissa / per-reduced-argument
// series values. The error of a cached value is below 2^-(cachePrec-28),
// leaving a huge margin over the ≤ 36-bit formats this project targets.
const cachePrec = 160

// Stats counts which path answered each query; the generation harness
// reports them.
type Stats struct {
	Specials  uint64 // NaN/Inf/zero/domain-error semantics
	Exacts    uint64 // number-theoretically exact results
	Clamps    uint64 // overflow/underflow range clamps
	Anchors   uint64 // anchor shortcuts (result adjacent to a known value)
	DD        uint64 // double-double first-step answers
	Shared    uint64 // identity-sharing cache hits
	FullEvals uint64 // full Ziv evaluations
	Ambiguous uint64 // shared-path answers that had to escalate to Ziv
}

// Total returns the total number of queries answered.
func (s Stats) Total() uint64 {
	return s.Specials + s.Exacts + s.Clamps + s.Anchors + s.DD + s.Shared + s.FullEvals
}

// Sub returns the counter-wise difference s − t. Taking two snapshots
// around a phase and subtracting yields that phase's query profile; the CLI
// uses it to attribute oracle work to the function being generated.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Specials:  s.Specials - t.Specials,
		Exacts:    s.Exacts - t.Exacts,
		Clamps:    s.Clamps - t.Clamps,
		Anchors:   s.Anchors - t.Anchors,
		DD:        s.DD - t.DD,
		Shared:    s.Shared - t.Shared,
		FullEvals: s.FullEvals - t.FullEvals,
		Ambiguous: s.Ambiguous - t.Ambiguous,
	}
}

// RecordTo writes the snapshot onto sp under the oracle.* counter taxonomy:
// queries (total answered), dd_hits (double-double first step),
// cache_hits (identity sharing), ziv_escalations (ambiguous shared
// answers), full_evals, and shortcuts (specials + exacts + clamps +
// anchors). Nil-safe like every obs write.
func (s Stats) RecordTo(sp *obs.Span) {
	sp.Add(obs.CtrOracleQueries, int64(s.Total()))
	sp.Add(obs.CtrOracleDDHits, int64(s.DD))
	sp.Add(obs.CtrOracleCacheHits, int64(s.Shared))
	sp.Add(obs.CtrOracleZivEscalations, int64(s.Ambiguous))
	sp.Add(obs.CtrOracleFullEvals, int64(s.FullEvals))
	sp.Add(obs.CtrOracleShortcuts, int64(s.Specials+s.Exacts+s.Clamps+s.Anchors))
}

// counters is one stripe of the internal race-free representation of
// Stats, padded so that no two stripes share a cache line or the adjacent
// line a prefetcher pulls in with it.
type counters struct {
	specials  atomic.Uint64
	exacts    atomic.Uint64
	clamps    atomic.Uint64
	anchors   atomic.Uint64
	dd        atomic.Uint64
	shared    atomic.Uint64
	fullEvals atomic.Uint64
	ambiguous atomic.Uint64
	_         [64]byte
}

// counterStripes is how many counter stripes an oracle keeps; Stats sums
// them. A query counts into the stripe its input's exponent bits pick, so
// workers sweeping different contiguous input ranges mostly count into
// different cache lines. With one shared set, the line would move between
// cores on every query, at a cost comparable to a whole dd-path answer.
const counterStripes = 16

// cacheStripes is the stripe count of the shared value caches; a power of
// two so the stripe index is a shift-and-mask.
const cacheStripes = 64

// bigCache is a lock-striped map from a 64-bit key to an immutable
// *big.Float, safe for concurrent use by the enumeration workers.
type bigCache struct {
	stripes [cacheStripes]struct {
		mu sync.Mutex
		m  map[uint64]*big.Float
	}
}

func newBigCache() *bigCache {
	c := &bigCache{}
	for i := range c.stripes {
		c.stripes[i].m = make(map[uint64]*big.Float)
	}
	return c
}

func (c *bigCache) stripe(key uint64) *struct {
	mu sync.Mutex
	m  map[uint64]*big.Float
} {
	// Fibonacci hashing spreads the mantissa-bit keys (whose low bits are
	// highly structured) across the stripes.
	return &c.stripes[(key*0x9e3779b97f4a7c15)>>(64-6)&(cacheStripes-1)]
}

// get returns the cached value for key, computing and inserting it on a
// miss. compute runs outside the stripe lock, so two goroutines racing on
// the same key may both compute it; the first insertion wins and the
// loser's identical value is discarded.
func (c *bigCache) get(key uint64, compute func() *big.Float) *big.Float {
	s := c.stripe(key)
	s.mu.Lock()
	if v, ok := s.m[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := compute()
	s.mu.Lock()
	if w, ok := s.m[key]; ok {
		v = w
	} else {
		s.m[key] = v
	}
	s.mu.Unlock()
	return v
}

// size returns the number of cached values across all stripes.
func (c *bigCache) size() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Oracle answers correctly-rounded-result queries for one elementary
// function. It is safe for concurrent use; see the package comment for the
// concurrency contract.
type Oracle struct {
	fn     bigmath.Func
	stats  [counterStripes]counters
	faults *fault.Plan

	// logCache maps the frexp mantissa bits of x to f(m) at cachePrec,
	// where m ∈ [0.5, 1); used by ln/log2/log10.
	logCache *bigCache
	// trigCache maps the bits of the exact reduction z = |x| mod 2 to f(z)
	// at cachePrec; used by sinpi/cospi.
	trigCache *bigCache
}

// New returns an oracle for fn.
func New(fn bigmath.Func) *Oracle {
	o := &Oracle{fn: fn}
	switch fn {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		o.logCache = newBigCache()
	case bigmath.SinPi, bigmath.CosPi:
		o.trigCache = newBigCache()
	}
	return o
}

// Func returns the function this oracle answers for.
func (o *Oracle) Func() bigmath.Func { return o.fn }

// SetFaults installs a fault-injection plan probed on every Result query
// (site oracle.ziv simulates Ziv-loop precision exhaustion). A nil plan —
// the default — disables injection. Set before sharing the oracle with
// worker goroutines.
func (o *Oracle) SetFaults(p *fault.Plan) { o.faults = p }

// Stats returns a snapshot of the path counters.
func (o *Oracle) Stats() Stats {
	var s Stats
	for i := range o.stats {
		c := &o.stats[i]
		s.Specials += c.specials.Load()
		s.Exacts += c.exacts.Load()
		s.Clamps += c.clamps.Load()
		s.Anchors += c.anchors.Load()
		s.DD += c.dd.Load()
		s.Shared += c.shared.Load()
		s.FullEvals += c.fullEvals.Load()
		s.Ambiguous += c.ambiguous.Load()
	}
	return s
}

// counters returns the counter stripe of a query for input x.
func (o *Oracle) counters(x float64) *counters {
	return &o.stats[(math.Float64bits(x)>>52)%counterStripes]
}

// Result returns the bits of fn(x) correctly rounded into out under mode.
// An unanswerable query — the Ziv loop exhausting its precision budget,
// real or injected — panics with a typed *fault.Error; the worker pool
// recovers it and reports it with job context.
func (o *Oracle) Result(x float64, out fp.Format, mode fp.Mode) uint64 {
	if o.faults.Should(fault.SiteOracleZiv) {
		panic(fault.New(fault.CodeOracleExhausted, "enumerate", "ziv",
			fault.Injected(fault.SiteOracleZiv)).WithFunc(o.fn.String()))
	}
	c := o.counters(x)
	if bits, ok := bigmath.SpecialBits(o.fn, x, out); ok {
		c.specials.Add(1)
		return bits
	}
	if v, ok := bigmath.ExactFloat64(o.fn, x); ok {
		c.exacts.Add(1)
		return out.FromFloat64(v, mode)
	}
	if v, ok := bigmath.ExactValue(o.fn, x); ok {
		c.exacts.Add(1)
		return out.FromBig(v, mode)
	}
	if bits, ok := o.rangeClamp(x, out, mode); ok {
		c.clamps.Add(1)
		return bits
	}
	if bits, ok := o.anchorShortcut(x, out, mode); ok {
		c.anchors.Add(1)
		return bits
	}
	if bits, ok := o.ddFirstStep(x, out, mode); ok {
		c.dd.Add(1)
		return bits
	}
	switch o.fn {
	case bigmath.Ln, bigmath.Log2, bigmath.Log10:
		return o.logShared(x, out, mode)
	case bigmath.SinPi, bigmath.CosPi:
		return o.trigShared(x, out, mode)
	}
	c.fullEvals.Add(1)
	return out.FromBig(bigmath.EvalUnambiguous(o.fn, x, out, mode), mode)
}

// rangeClamp answers exponential-family queries whose result magnitude is
// certainly beyond the finite range of out (or strictly inside the
// underflow gap), using saturated proxies that round identically in every
// mode.
func (o *Oracle) rangeClamp(x float64, out fp.Format, mode fp.Mode) (uint64, bool) {
	var t float64 // approximate log2 |result|
	switch o.fn {
	case bigmath.Exp:
		t = x * math.Log2E
	case bigmath.Exp2:
		t = x
	case bigmath.Exp10:
		t = x * math.Log2(10)
	case bigmath.Sinh, bigmath.Cosh:
		t = math.Abs(x)*math.Log2E - 1
		if math.Abs(x) < 4 {
			return 0, false
		}
	default:
		return 0, false
	}
	over := float64(out.EMax() + 2)
	under := float64(out.EMin() - out.MantBits() - 2)
	switch {
	case t > over:
		proxy := math.MaxFloat64
		if o.fn == bigmath.Sinh && x < 0 {
			proxy = -proxy
		}
		return out.FromFloat64(proxy, mode), true
	case t < under && o.fn != bigmath.Sinh && o.fn != bigmath.Cosh:
		// 0 < result < minSubnormal/4: a positive sticky-only quantity.
		return out.FromFloat64(math.SmallestNonzeroFloat64, mode), true
	}
	return 0, false
}

// anchorShortcut answers queries where f(x) = a + δ with a representable in
// out and 0 < |δ| < half the distance to a's neighbour, so the rounded
// result is a or the adjacent value depending only on mode and parity.
func (o *Oracle) anchorShortcut(x float64, out fp.Format, mode fp.Mode) (uint64, bool) {
	p := out.MantBits()
	switch o.fn {
	case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
		// |e^(cx) − 1| ≤ 2.31|x|·1.01 < half ulp around 1 when
		// |x| ≤ 2^-(p+4). x ≠ 0 here (exact case).
		if math.Abs(x) <= math.Ldexp(1, -(p+4)) {
			return justAside(out, 1, x > 0, mode), true
		}
	case bigmath.Sinh:
		// sinh x − x = x³/6 (+h.o.t.): below half ulp(x) when
		// |x| ≤ 2^-((p+6)/2). The anchor x must itself be representable.
		if math.Abs(x) <= math.Ldexp(1, -(p+6)/2-1) && out.Contains(x) {
			return justAside(out, x, x > 0, mode), true
		}
	case bigmath.Cosh:
		// cosh x − 1 = x²/2 (+h.o.t.).
		if math.Abs(x) <= math.Ldexp(1, -(p+6)/2-1) {
			return justAside(out, 1, true, mode), true
		}
	case bigmath.CosPi:
		// 0 < 1 − cosπ x < (πx)²/2 < 5x² for x ≠ 0, and half the gap
		// below 1 is 2^-(p+2). With |x| ≤ 2^-k, k = (p+2)/2+3 ≥ (p+7)/2,
		// 5x² ≤ 5·2^-(p+7) < 2^-(p+2).
		if math.Abs(x) <= math.Ldexp(1, -((p+2)/2+3)) {
			return justAside(out, 1, false, mode), true
		}
	}
	return 0, false
}

// ddFirstStep rounds the double-double value of fn(x) into out when its
// error envelope hi + lo ± |hi|·dd.RelErrBound, which holds the exact
// value, rounds to one value of (out, mode). It declines results outside
// [dd.MinResult, dd.MaxResult] in magnitude (including the kernels'
// special and saturated values) and envelopes that straddle a rounding
// boundary.
func (o *Oracle) ddFirstStep(x float64, out fp.Format, mode fp.Mode) (uint64, bool) {
	v := dd.Eval(o.fn, x)
	if a := math.Abs(v.Hi); !(a >= dd.MinResult && a <= dd.MaxResult) {
		return 0, false
	}
	return v.Round(out, mode, dd.RelErrBound)
}

// justAside returns the rounding of anchor+δ (positiveDelta) or anchor−δ,
// for an anchor exactly representable in out and 0 < δ < half the gap to
// the adjacent value in that direction.
func justAside(out fp.Format, anchor float64, positiveDelta bool, mode fp.Mode) uint64 {
	a := out.FromFloat64(anchor, fp.RoundTowardZero)
	var lo, hi uint64
	if positiveDelta {
		lo, hi = a, out.NextUp(a)
	} else {
		lo, hi = out.NextDown(a), a
	}
	switch mode {
	case fp.RoundNearestEven, fp.RoundNearestAway:
		return a
	case fp.RoundTowardPositive:
		return hi
	case fp.RoundTowardNegative:
		return lo
	case fp.RoundTowardZero:
		if anchor > 0 {
			return lo
		}
		return hi
	case fp.RoundToOdd:
		if out.OddMantissa(lo) {
			return lo
		}
		return hi
	}
	//lint:ignore barepanic exhaustive Mode switch; a new rounding mode is a compile-time change.
	panic("oracle: bad mode")
}

// logShared answers log-family queries by combining a cached per-mantissa
// series value with an exact multiple of a cached constant:
//
//	ln(m·2^e)    = ln(m)    + e·ln(2)
//	log2(m·2^e)  = log2(m)  + e
//	log10(m·2^e) = log10(m) + e·log10(2)
//
// The combined error is far below 2^-(cachePrec-30); if the result still
// sits too close to a rounding boundary the query escalates to the Ziv
// loop.
func (o *Oracle) logShared(x float64, out fp.Format, mode fp.Mode) uint64 {
	m, e := math.Frexp(x) // x > 0 here
	key := math.Float64bits(m)
	fm := o.logCache.get(key, func() *big.Float {
		if m == 0.5 {
			// log(0.5) = -log(2): exact constant, avoids Eval at a point
			// where the log is an exact multiple of the shared constant.
			switch o.fn {
			case bigmath.Ln:
				return new(big.Float).SetPrec(cachePrec).Neg(bigmath.Ln2(cachePrec))
			case bigmath.Log2:
				return new(big.Float).SetPrec(cachePrec).SetInt64(-1)
			case bigmath.Log10:
				return new(big.Float).SetPrec(cachePrec).Neg(bigmath.Log10Of2(cachePrec))
			}
		}
		return bigmath.Eval(o.fn, m, cachePrec)
	})
	y := new(big.Float).SetPrec(cachePrec)
	eb := new(big.Float).SetPrec(cachePrec).SetInt64(int64(e))
	switch o.fn {
	case bigmath.Ln:
		y.Mul(eb, bigmath.Ln2(cachePrec))
	case bigmath.Log2:
		y.Set(eb)
	case bigmath.Log10:
		y.Mul(eb, bigmath.Log10Of2(cachePrec))
	}
	y.Add(y, fm)
	c := o.counters(x)
	if bits, ok := o.roundUnlessAmbiguous(y, out, mode); ok {
		c.shared.Add(1)
		return bits
	}
	c.ambiguous.Add(1)
	c.fullEvals.Add(1)
	return out.FromBig(bigmath.EvalUnambiguous(o.fn, x, out, mode), mode)
}

// trigShared answers sinπ/cosπ queries from a cache keyed by the exact
// reduction z = |x| mod 2, using sinπ(-x) = -sinπ(x) and cosπ(-x) = cosπ(x).
func (o *Oracle) trigShared(x float64, out fp.Format, mode fp.Mode) uint64 {
	z := math.Mod(math.Abs(x), 2)
	fz := o.trigCache.get(math.Float64bits(z), func() *big.Float {
		return bigmath.Eval(o.fn, z, cachePrec)
	})
	y := fz
	if o.fn == bigmath.SinPi && math.Signbit(x) {
		y = new(big.Float).SetPrec(cachePrec).Neg(fz)
	}
	c := o.counters(x)
	if bits, ok := o.roundUnlessAmbiguous(y, out, mode); ok {
		c.shared.Add(1)
		return bits
	}
	c.ambiguous.Add(1)
	c.fullEvals.Add(1)
	return out.FromBig(bigmath.EvalUnambiguous(o.fn, x, out, mode), mode)
}

// roundUnlessAmbiguous rounds y whose relative error is below
// 2^-(cachePrec-32), reporting failure when the error envelope straddles a
// rounding boundary of (out, mode).
func (o *Oracle) roundUnlessAmbiguous(y *big.Float, out fp.Format, mode fp.Mode) (uint64, bool) {
	if y.Sign() == 0 {
		return 0, false
	}
	eps := new(big.Float).SetPrec(32).SetInt64(1)
	eps.SetMantExp(eps, y.MantExp(nil)-cachePrec+32)
	lo := new(big.Float).SetPrec(cachePrec+4).Sub(y, eps)
	hi := new(big.Float).SetPrec(cachePrec+4).Add(y, eps)
	a, b := out.FromBig(lo, mode), out.FromBig(hi, mode)
	if a != b {
		return 0, false
	}
	return a, true
}
