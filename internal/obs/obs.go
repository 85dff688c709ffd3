// Package obs is the pipeline's observability layer: hierarchical spans
// with monotonic timings, a typed counter taxonomy, and a versioned
// run-report emitter (report.go). It is stdlib-only and deterministic by
// default — the layer observes the pipeline but may never influence it.
//
// # Write-only from the coefficient path
//
// The generator's contract is that emitted coefficients are bit-identical
// with observability on or off. The obs API is therefore split:
//
//   - Write side — New, Root, Child, End, Add, Gauge, WithSpan, SpanFrom —
//     may be called from anywhere, including the coefficient-path packages
//     (internal/gen, internal/clarkson, internal/oracle, internal/pipeline,
//     internal/parallel). Every write-side method is nil-safe: a nil
//     *Recorder or *Span (observability disabled) makes every call a
//     no-op, so the instrumented hot paths cost one nil check.
//
//   - Read side — Report, Render, WriteJSON, WriteFile — turns the recorded
//     state into output. Calling it from a coefficient-path package would
//     let counters feed back into generation; the rlibm-lint obsleak
//     analyzer forbids exactly that (internal/cli and the commands, which
//     are outside the coefficient path, emit the reports).
//
// # Determinism
//
// Counters (the typed Counter taxonomy) count deterministic work — solver
// iterations, constraint rows, artifact-store probes — and are identical
// for every worker count; the determinism test in internal/cli pins this.
// Timings and gauges (span durations, worker-pool utilization) are
// volatile by construction and live in a separate section of the report,
// excluded from any determinism comparison, mirroring how gen.Stats keeps
// Duration and the oracle path counters out of the solve artifact.
//
// # Span hierarchy
//
// Spans nest run → function → stage → piece: each command starts one root
// span ("run"), internal/cli opens a child span per generated function,
// pipeline.Run opens a child span per stage (verify wraps solve, which
// wraps reduce, which wraps enumerate — an outer stage's duration includes
// the stages it triggered), and the solve stage opens one span per
// concurrent piece solve. Span mutation is mutex-guarded, so pool workers
// may attach children and counters concurrently.
package obs

import (
	"context"
	"sync"
	"time"
)

// Counter names one deterministic counter of the taxonomy. Counter values
// must be identical for every worker count and must never feed back into
// generation; see the package comment.
type Counter string

// The counter taxonomy. Every counter appears in a report (zero-valued
// when the run never touched its subsystem), so the report schema is
// stable across runs and configurations.
const (
	// Clarkson solver effort (internal/clarkson via the solve stage).
	CtrClarksonAttempts        Counter = "clarkson.attempts"         // Solve calls (term-count attempts)
	CtrClarksonIters           Counter = "clarkson.iters"            // sampling iterations
	CtrClarksonSamples         Counter = "clarkson.samples"          // iterations that drew and solved a weighted sample
	CtrClarksonWeightDoublings Counter = "clarkson.weight_doublings" // lucky iterations (violated weights doubled)
	CtrClarksonExactSolves     Counter = "clarkson.exact_solves"     // escalations to the exact solver
	CtrClarksonExactFallbacks  Counter = "clarkson.exact_fallbacks"  // exact solves the basis certificate could not close, so the rational tableau ran

	// Rescue-ladder rungs consumed by kernels whose baseline search ran dry
	// (internal/gen solveKernel).
	CtrRescueSeedRotations     Counter = "rescue.seed_rotations"
	CtrRescueBudgetEscalations Counter = "rescue.budget_escalations"
	CtrRescueDegradations      Counter = "rescue.degradations"

	// Oracle query paths (internal/oracle; recorded as a per-function
	// Stats delta by internal/cli).
	CtrOracleQueries        Counter = "oracle.queries"         // total queries answered
	CtrOracleCacheHits      Counter = "oracle.cache_hits"      // identity-sharing cache answers
	CtrOracleZivEscalations Counter = "oracle.ziv_escalations" // shared-path answers too ambiguous to round
	CtrOracleFullEvals      Counter = "oracle.full_evals"      // full Ziv evaluations
	CtrOracleShortcuts      Counter = "oracle.shortcuts"       // special/exact/clamp/anchor answers

	// Constraint-system size (enumerate and reduce stages).
	CtrRowsEnumerated Counter = "constraints.enumerated" // raw pre-merge constraints
	CtrRowsReduced    Counter = "constraints.reduced"    // merged rows after reduction

	// Special-input handling (solve and verify stages).
	CtrSpecialsResolved Counter = "solve.specials_resolved" // round-to-odd proxies computed
	CtrVerifyPatched    Counter = "verify.patched"          // inputs patched by the repair pass

	// Artifact store (internal/pipeline).
	CtrStoreHits         Counter = "store.hits"
	CtrStoreMisses       Counter = "store.misses"
	CtrStoreBytesRead    Counter = "store.bytes_read"
	CtrStoreBytesWritten Counter = "store.bytes_written"

	// Store eviction (internal/pipeline EvictingStore; recorded once per
	// run by internal/cli from the wrapper's stats snapshot, like the
	// remote transport counters below). Evictions counts artifacts the
	// LRU budget deleted; bytes_live is the tracked byte footprint at the
	// end of the run. Both depend on access order under concurrency, so —
	// like the transport retry count — they describe the run that
	// happened rather than a worker-count-invariant quantity.
	CtrStoreEvictions Counter = "store.evictions"
	CtrStoreBytesLive Counter = "store.bytes_live"

	// Remote store transport (internal/pipeline RemoteStore; recorded
	// once per run by internal/cli from the client's RemoteStats
	// snapshot). One round trip per store-operation attempt, so the
	// counts are deterministic for a fixed workload and injection plan;
	// retries count transport failures consumed by the reconnect budget.
	CtrRemoteRoundTrips Counter = "store.remote.round_trips"
	CtrRemoteRetries    Counter = "store.remote.retries"
	CtrRemoteBytesSent  Counter = "store.remote.bytes_sent"
	CtrRemoteBytesRecv  Counter = "store.remote.bytes_recv"

	// Batched serving-path evaluation (internal/eval). Recorded once per
	// EvalBatch call — never per input — so the hot loop stays free of
	// locks and allocation; a kernel without an attached span records
	// nothing (nil-safe writes, like every other instrumented path).
	CtrEvalBatches     Counter = "eval.batches"      // EvalBatch calls
	CtrEvalInputs      Counter = "eval.inputs"       // inputs across those calls
	CtrEvalSpecialHits Counter = "eval.special_hits" // special-path and special-table answers
	CtrEvalTruncated   Counter = "eval.truncated"    // truncated-prefix polynomial evaluations
	CtrEvalFull        Counter = "eval.full"         // full (largest-level) polynomial evaluations

	// Long-lived evaluation service (internal/serve). Requests counts
	// every admission attempt on either endpoint; shed counts requests
	// rejected because the admission queue was full (HTTP 429), canceled
	// counts requests cut short by their deadline or the client going
	// away, and panics counts handler panics isolated to one request.
	// Reloads/reload.failed count coefficient hot-swaps from the artifact
	// store — a failed reload keeps serving the previous kernel set.
	CtrServeRequests     Counter = "serve.requests"
	CtrServeShed         Counter = "serve.shed"
	CtrServeCanceled     Counter = "serve.canceled"
	CtrServePanics       Counter = "serve.panics"
	CtrServeReloads      Counter = "serve.reloads"
	CtrServeReloadFailed Counter = "serve.reload.failed"
)

// Taxonomy returns every counter, in report order.
func Taxonomy() []Counter {
	return []Counter{
		CtrClarksonAttempts, CtrClarksonIters, CtrClarksonSamples,
		CtrClarksonWeightDoublings, CtrClarksonExactSolves, CtrClarksonExactFallbacks,
		CtrRescueSeedRotations, CtrRescueBudgetEscalations, CtrRescueDegradations,
		CtrOracleQueries, CtrOracleCacheHits, CtrOracleZivEscalations,
		CtrOracleFullEvals, CtrOracleShortcuts,
		CtrRowsEnumerated, CtrRowsReduced,
		CtrSpecialsResolved, CtrVerifyPatched,
		CtrStoreHits, CtrStoreMisses, CtrStoreBytesRead, CtrStoreBytesWritten,
		CtrStoreEvictions, CtrStoreBytesLive,
		CtrRemoteRoundTrips, CtrRemoteRetries, CtrRemoteBytesSent, CtrRemoteBytesRecv,
		CtrEvalBatches, CtrEvalInputs, CtrEvalSpecialHits, CtrEvalTruncated, CtrEvalFull,
		CtrServeRequests, CtrServeShed, CtrServeCanceled, CtrServePanics,
		CtrServeReloads, CtrServeReloadFailed,
	}
}

// Volatile gauge names (worker-pool utilization, recorded by
// internal/parallel). Gauges are additive like counters but depend on
// scheduling and the worker count, so they live in the report's volatile
// section and are excluded from determinism comparisons.
const (
	GaugePoolInvocations = "pool.invocations" // ForEachErr calls observed
	GaugePoolJobs        = "pool.jobs"        // jobs executed across those calls
	GaugePoolWorkers     = "pool.workers"     // worker goroutines summed over calls
	GaugePoolBusyNS      = "pool.busy_ns"     // summed worker-goroutine lifetimes
	GaugePoolWallNS      = "pool.wall_ns"     // summed pool wall-clock spans
)

// Recorder owns one run's observability state: a monotonic time base and
// the root of the span tree. A nil *Recorder is the disabled layer — every
// method no-ops and Root returns a nil *Span that no-ops too.
type Recorder struct {
	start time.Time
	root  *Span
}

// New returns a live recorder whose root span has the given name
// (conventionally "run"). The root span is open; End it (or not — Report
// measures to now) before emitting.
func New(name string) *Recorder {
	//lint:ignore wallclock observability time base only; span timings never feed a coefficient.
	r := &Recorder{start: time.Now()} //lint:ignore nondetflow the recorder's span travels with serving/reload code that also derives store keys, but key bytes come only from function names and options — no span state reaches an Enc, Seal or fingerprint.
	r.root = &Span{rec: r, name: name}
	return r
}

// Root returns the run's root span; nil-safe.
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// now returns nanoseconds since the recorder's start on the monotonic
// clock.
func (r *Recorder) now() int64 {
	//lint:ignore wallclock observability timings only; the value never feeds a coefficient.
	return int64(time.Since(r.start))
}

// Span is one node of the timing tree. All methods are nil-safe and safe
// for concurrent use: the solve stage attaches piece spans from pool
// workers.
type Span struct {
	rec  *Recorder
	name string

	mu       sync.Mutex
	startNS  int64
	durNS    int64
	children []*Span
	counters map[Counter]int64
	volatile map[string]int64
}

// Child opens a new child span; End it when its work completes.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{rec: s.rec, name: name, startNS: s.rec.now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. A second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.rec.now()
	s.mu.Lock()
	if s.durNS == 0 {
		s.durNS = now - s.startNS
	}
	s.mu.Unlock()
}

// Add increments a deterministic counter on the span. Report sums counters
// over the whole tree.
func (s *Span) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[Counter]int64)
	}
	s.counters[c] += n
	s.mu.Unlock()
}

// Gauge adds to a volatile (scheduling-dependent) gauge on the span; see
// the Gauge* names above.
func (s *Span) Gauge(name string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.volatile == nil {
		s.volatile = make(map[string]int64)
	}
	s.volatile[name] += n
	s.mu.Unlock()
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// WithSpan returns a context carrying s as the current span. A nil span
// returns ctx unchanged, so a disabled recorder stays invisible.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom returns the current span of ctx, or nil when none (or a
// disabled recorder) is attached.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
