package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bigmath"
)

type metricKind string

const (
	endToEnd metricKind = "end_to_end"
	perLayer metricKind = "per_layer"
)

type metric struct {
	name string
	unit string
	kind metricKind
}

// formatNames are the three output formats of the eval workload, named as
// in the metric suffixes.
var formatNames = []string{"bfloat16", "tensorfloat32", "float"}

// metricTable declares every metric, in BENCHMARK.json order
// (TestMetricTableMatchesBenchmarkJSON keeps the two in step).
var metricTable = buildMetricTable()

func buildMetricTable() []metric {
	var t []metric
	add := func(kind metricKind, unit string, names ...string) {
		for _, n := range names {
			t = append(t, metric{name: n, unit: unit, kind: kind})
		}
	}
	perFunc := func(prefix string) []string {
		var out []string
		for _, fn := range bigmath.AllFuncs {
			out = append(out, prefix+"."+fn.String())
		}
		return out
	}
	perFormat := func(prefix string) []string {
		var out []string
		for _, f := range formatNames {
			out = append(out, prefix+"."+f)
		}
		return out
	}

	add(endToEnd, "s", "setup_s")
	add(endToEnd, "MB", "peak_rss_mb")
	add(endToEnd, "ms", "latency_p50_ms")
	add(endToEnd, "1/s", "throughput_per_s")

	// The tail latency of the workload's operation, from the untraced part
	// of the traced run: on a shared machine it does not repeat within any
	// bound a regression gate could use, so it is reported without one.
	add(perLayer, "ms", "tail.latency_p99_ms")
	add(perLayer, "frac", "trace.overhead_frac")
	// gen
	add(perLayer, "s", "gen.enumerate_s", "gen.solve_s")
	add(perLayer, "s", perFunc("gen.solve_s")...)
	add(perLayer, "s", "verify.repair_s")
	add(perLayer, "count", "clarkson.iters", "clarkson.attempts", "clarkson.lucky", "clarkson.exact_solves")
	add(perLayer, "count", perFunc("clarkson.exact_solves")...)
	add(perLayer, "frac", "lp.exact_frac")
	add(perLayer, "count", "gen.rows_raw", "gen.rows_merged", "oracle.queries", "oracle.full_evals")
	// check
	add(perLayer, "ns", "oracle.result_ns", "verify.ref_eval_ns", "fp.from_float64_ns")
	add(perLayer, "s", perFunc("verify.check_s")...)
	add(perLayer, "count", "oracle.specials", "oracle.exacts", "oracle.clamps", "oracle.anchors", "oracle.shared", "oracle.ambiguous")
	add(perLayer, "frac", "oracle.full_eval_frac")
	// eval
	for _, layer := range []string{"eval.batch_ns", "fp.round_ns", "reduction.reduce_ns", "reduction.compensate_ns",
		"reduction.special_ns", "poly.eval_ns", "eval.residual_ns"} {
		add(perLayer, "ns", perFormat(layer)...)
	}
	add(perLayer, "ns", "eval.uniform_ns", "eval.call_ns", "libm.call_overhead_ns")
	add(perLayer, "frac", "eval.special_frac", "eval.truncated_frac")
	// serve
	add(perLayer, "ms", "serve.loopback_p50_ms")
	add(perLayer, "us", "serve.evaluate_us", "serve.kernel_us", "serve.wire_us.http", "serve.wire_us.bulk")
	add(perLayer, "frac", "serve.shed_frac")
	add(perLayer, "count", "serve.backlog")
	add(perLayer, "ms", "serve.gen_late_ms")
	add(perLayer, "1/s", "serve.max_rps")
	add(perLayer, "count", "serve.valid_steps")
	return t
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the tail percentile the latency metrics report: the
// highest percentile, up to the 99th, that leaves at least ten samples
// beyond it. Below twenty samples no percentile does, and the largest
// sample is reported instead.
func tailQuantile(xs []float64) float64 {
	n := float64(len(xs))
	if n < 20 {
		return quantile(xs, 1)
	}
	return quantile(xs, math.Min(0.99, 1-10/n))
}

// funcLatencies collects the per-function times of the gen and check
// workloads, in milliseconds, across passes.
type funcLatencies map[bigmath.Func][]float64

// String lists each function's median time, in function order.
func (l funcLatencies) String() string {
	var b strings.Builder
	for _, fn := range bigmath.AllFuncs {
		if ts, ok := l[fn]; ok {
			fmt.Fprintf(&b, " %v=%.0f", fn, median(ts))
		}
	}
	return "per-function median ms:" + b.String()
}

// measureSetup runs the workload's set-up in samples × batch
// repetitions and returns the median over samples of the mean time of one
// set-up within a batch, in seconds, together with the state of the last
// repetition; every other state is released with cleanup, outside the
// timed region. Batching makes each sample long enough that timer and
// scheduling noise stay small against it; the heap is collected before
// each sample, so repetitions allocate into memory the process already
// holds and the figure is the set-up's own work, not first-touch page
// faults.
func measureSetup[T any](samples, batch int, setup func() (T, error), cleanup func(T)) (float64, T, error) {
	var (
		last        T
		have        bool
		times       []float64
		batchStates = make([]T, batch)
	)
	for i := 0; i < samples; i++ {
		runtime.GC()
		start := time.Now()
		for b := range batchStates {
			s, err := setup()
			if err != nil {
				return 0, last, err
			}
			batchStates[b] = s
		}
		times = append(times, time.Since(start).Seconds()/float64(batch))
		if cleanup != nil {
			if have {
				cleanup(last)
			}
			for _, s := range batchStates[:batch-1] {
				cleanup(s)
			}
		}
		last, have = batchStates[batch-1], true
	}
	return median(times), last, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return v / 1024
}

// cpuModel reads the CPU model name for the provenance line.
func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// procField returns the trimmed value of the first "key: value" line of a
// /proc file starting with key, or "" when absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}
