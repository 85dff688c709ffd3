package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/oracle"
	"repro/internal/verify"
)

// The check workload: an exhaustive verify.Exhaustive of the shipped
// tables over every tensorfloat32 input under all five modes, one fresh
// oracle per function, as `rlibm-check -format F19,8` does it. The input
// set is every tensorfloat32 value, so the benchmark seed only draws the
// inputs of the independent cross-check. As on gen, the operation whose
// latency is reported is one pass over all ten functions.
const checkCrossInputs = 512 // inputs per function re-checked outside verify

var checkFormat = fp.TensorFloat32

func runCheck(cfg config) (*outcome, error) {
	setupS, lib, err := measureSetup(setupSamples, setupBatch, loadLibrary, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := bigmath.AllFuncs // fixed: the first function to need a bigmath constant pays for it
	out := &outcome{metrics: make(map[string]float64)}

	fnTimes := make(funcLatencies)
	var pairs float64
	pass := func() (float64, error) {
		var total float64
		for _, fn := range order {
			runtime.GC() // each function starts on a collected heap
			start := time.Now()
			reps := verify.Exhaustive(verify.NewGenImpl(lib.results[fn]), oracle.New(fn), checkFormat, fp.StandardModes, cfg.workers)
			d := time.Since(start).Seconds()
			total += d
			fnTimes[fn] = append(fnTimes[fn], d*1e3)
			pairs += tallyReports(out, fn, reps)
			out.failed += crossCheck(out, lib, fn, rng)
		}
		return total, nil
	}

	if cfg.tr == nil {
		passes, err := passLoop(cfg, pass)
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["latency_p50_ms"] = median(passes) * 1e3
		out.note("%v", fnTimes)
		out.metrics["throughput_per_s"] = pairs / sum(passes)
		out.note("check: %.4g (input, mode) pairs per second over %d passes", pairs/sum(passes), len(passes))
		return out, nil
	}

	untraced, err := pass()
	if err != nil {
		return nil, err
	}
	counts := checkTraced(cfg, lib, order, out)
	for k, v := range counts {
		out.metrics[k] = v
	}
	traced := cfg.tr.total("verify.Exhaustive", "")
	for _, fn := range bigmath.AllFuncs {
		out.metrics["verify.check_s."+fn.String()] = cfg.tr.total("verify.Exhaustive", fn.String())
	}
	out.metrics["tail.latency_p99_ms"] = untraced * 1e3 // one pass: the slowest is the only one
	out.metrics["trace.overhead_frac"] = traced/untraced - 1
	out.note("untraced pass %.3f s, traced verify.Exhaustive calls %.3f s", untraced, traced)
	return out, nil
}

// tallyReports adds one function's verification reports to the outcome:
// every checked (input, mode) pair is attempted, every mismatch — and
// every input the sweep should have checked but did not — failed. It
// returns the number of pairs checked.
func tallyReports(out *outcome, fn bigmath.Func, reps []verify.Report) float64 {
	var checked float64
	for _, r := range reps {
		checked += float64(r.Checked)
		out.attempted += int64(r.Checked)
		out.failed += int64(len(r.Mismatches))
		if missing := int64(checkFormat.NumValues()) - int64(r.Checked); missing > 0 {
			out.attempted += missing
			out.failed += missing
		}
		if !r.Correct() {
			out.note("%v %v: %d mismatches", fn, r.Mode, len(r.Mismatches))
		}
	}
	return checked
}

// crossCheck re-derives the correct result of checkCrossInputs sampled
// inputs from a fresh oracle, independently of verify's sweep, and
// returns how many the checked implementation gets wrong (a sweep that
// reported them correct would be wrong itself).
func crossCheck(out *outcome, lib *library, fn bigmath.Func, rng *rand.Rand) int64 {
	impl := verify.NewGenImpl(lib.results[fn])
	xs := make([]float64, checkCrossInputs)
	for i, b := range sampleBits(rng, checkFormat, checkCrossInputs) {
		xs[i] = checkFormat.Decode(b)
	}
	want := expected(oracle.New(fn), checkFormat, xs, fp.StandardModes, 1)
	var bad int64
	for mi, m := range fp.StandardModes {
		got := make([]uint64, len(xs))
		for i, x := range xs {
			got[i] = impl.Bits(x, checkFormat, m)
		}
		bad += mismatches(got, want[mi])
	}
	if bad > 0 {
		out.note("%v: %d cross-checked outputs differ from the oracle", fn, bad)
	}
	return bad
}

// checkTraced splits the check into its layers for every function: a
// fresh oracle's round-to-odd result at f+2 bits over every input
// (oracle.result_ns), the reference evaluator per input × mode
// (verify.ref_eval_ns), the per-mode rounding of the proxy
// (fp.from_float64_ns), then the real verify.Exhaustive call with another
// fresh oracle whose path counts it reports.
func checkTraced(cfg config, lib *library, order []bigmath.Func, out *outcome) map[string]float64 {
	tr := cfg.tr
	f := checkFormat
	ext := f.Extend(2)
	n := int(f.NumValues())
	modes := fp.StandardModes
	ro := make([]float64, n)
	got := make([][]uint64, len(modes))
	want := make([][]uint64, len(modes))
	for mi := range modes {
		got[mi] = make([]uint64, n)
		want[mi] = make([]uint64, n)
	}
	counts := make(map[string]float64)
	var resultNS, refNS, roundNS float64
	for _, fn := range order {
		runtime.GC()
		root := tr.begin("perfbench.check", fn.String(), -1, -1)
		orc := oracle.New(fn)
		start := time.Now()
		parallelRange(cfg.workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ro[i] = ext.Decode(orc.Result(f.Decode(uint64(i)), ext, fp.RoundToOdd))
			}
		})
		d := time.Since(start)
		tr.record("oracle.Result", fn.String(), root, start, d)
		resultNS += float64(d.Nanoseconds()) / float64(n)

		impl := verify.NewGenImpl(lib.results[fn])
		start = time.Now()
		parallelRange(cfg.workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := f.Decode(uint64(i))
				for mi, m := range modes {
					got[mi][i] = impl.Bits(x, f, m)
				}
			}
		})
		d = time.Since(start)
		tr.record("verify.Impl.Bits", fn.String(), root, start, d)
		refNS += float64(d.Nanoseconds()) / float64(n*len(modes))

		start = time.Now()
		parallelRange(cfg.workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for mi, m := range modes {
					want[mi][i] = f.FromFloat64(ro[i], m)
				}
			}
		})
		d = time.Since(start)
		tr.record("fp.Format.FromFloat64", fn.String(), root, start, d)
		roundNS += float64(d.Nanoseconds()) / float64(n*len(modes))

		// The layer replay is itself an exhaustive check, independent of
		// verify's sweep.
		for mi := range modes {
			if bad := mismatches(got[mi], want[mi]); bad > 0 {
				out.failed += bad
				out.note("%v %v: %d layer-replay outputs differ from the oracle", fn, modes[mi], bad)
			}
		}

		vo := oracle.New(fn)
		id := tr.begin("verify.Exhaustive", fn.String(), root, -1)
		reps := verify.Exhaustive(impl, vo, f, modes, cfg.workers)
		tr.end(id)
		tr.end(root)
		tallyReports(out, fn, reps)
		addOracleCounts(counts, vo.Stats())
	}
	k := float64(len(order))
	counts["oracle.result_ns"] = resultNS / k
	counts["verify.ref_eval_ns"] = refNS / k
	counts["fp.from_float64_ns"] = roundNS / k
	if counts["oracle.queries"] > 0 {
		counts["oracle.full_eval_frac"] = counts["oracle.full_evals"] / counts["oracle.queries"]
	}
	return counts
}

// addOracleCounts adds an oracle's path counts to counts.
func addOracleCounts(counts map[string]float64, s oracle.Stats) {
	counts["oracle.queries"] += float64(s.Total())
	counts["oracle.full_evals"] += float64(s.FullEvals)
	counts["oracle.specials"] += float64(s.Specials)
	counts["oracle.exacts"] += float64(s.Exacts)
	counts["oracle.clamps"] += float64(s.Clamps)
	counts["oracle.anchors"] += float64(s.Anchors)
	counts["oracle.shared"] += float64(s.Shared)
	counts["oracle.ambiguous"] += float64(s.Ambiguous)
}
