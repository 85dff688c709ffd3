package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/reduction"
)

// The eval workload: the shipped serving kernels of all ten functions ×
// {bfloat16, tensorfloat32, the largest shipped format} × five modes on
// three input mixes — (a) regular in-domain inputs through
// Kernel.EvalBatch, (b) uniform bit patterns through Kernel.EvalBatch,
// (c) mix (a) one input at a time through libm.Eval. One operation is one
// mix of evalBatch inputs for one (function, format, mode).
const (
	evalBatch    = 1024
	layerRepeat  = 15 // repetitions of each timed layer loop; the median counts
	tracedRounds = 5  // untraced/traced pass pairs of a traced run
	// evalWindowPasses passes make one window of the untraced run's
	// statistics: 1350 operations, enough for a 99th percentile.
	evalWindowPasses = 3
)

var mixNames = []string{"regular", "uniform", "call"}

// evalCase is the input of one (function, format): both mixes and the
// oracle's correct results for them under every mode.
type evalCase struct {
	fn       bigmath.Func
	fi       int
	regular  []float64
	uniform  []float64
	wantReg  [][]uint64 // per mode
	wantUnif [][]uint64 // per mode
}

// regularInputs draws n in-domain inputs of fn in f: the per-function
// ranges of the repository's kernel benchmarks (logs over many binades,
// exponentials and hyperbolics around their finite range, sinπ/cosπ over
// several periods), excluding zeros, infinities and NaN.
func regularInputs(rng *rand.Rand, fn bigmath.Func, f fp.Format, n int) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		var x float64
		switch fn {
		case bigmath.Ln, bigmath.Log2, bigmath.Log10:
			x = math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)
		case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
			x = (rng.Float64()*2 - 1) * 70
		case bigmath.Sinh, bigmath.Cosh:
			x = (rng.Float64()*2 - 1) * 80
		default:
			x = (rng.Float64()*2 - 1) * 16
		}
		x = f.Decode(f.FromFloat64(x, fp.RoundNearestEven))
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		out = append(out, x)
	}
	return out
}

// evalCases draws the inputs of every (function, format) and computes
// their correct results with a fresh oracle per function.
func evalCases(lib *library, rng *rand.Rand, workers int) []*evalCase {
	var cases []*evalCase
	for _, fn := range bigmath.AllFuncs {
		orc := oracle.New(fn)
		for fi, f := range lib.formats {
			c := &evalCase{fn: fn, fi: fi, regular: regularInputs(rng, fn, f, evalBatch)}
			c.uniform = make([]float64, evalBatch)
			for i, b := range sampleBits(rng, f, evalBatch) {
				c.uniform[i] = f.Decode(b)
			}
			c.wantReg = expected(orc, f, c.regular, fp.StandardModes, workers)
			c.wantUnif = expected(orc, f, c.uniform, fp.StandardModes, workers)
			cases = append(cases, c)
		}
	}
	return cases
}

// evalOp is one timed operation: one mix of one case under one mode.
type evalOp struct {
	c   *evalCase
	mi  int // index into fp.StandardModes
	mix int // index into mixNames
}

func runEval(cfg config) (*outcome, error) {
	setupS, lib, err := measureSetup(setupSamples, setupBatch, loadLibrary, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	cases := evalCases(lib, rng, cfg.workers)
	var ops []evalOp
	for _, c := range cases {
		for mi := range fp.StandardModes {
			for mix := range mixNames {
				ops = append(ops, evalOp{c: c, mi: mi, mix: mix})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	out := &outcome{metrics: make(map[string]float64)}
	dst := make([]uint64, evalBatch)

	var opTimes []float64 // ms, in pass order
	pass := func(tr *tracer) (float64, error) {
		var total float64
		for _, op := range ops {
			d, err := runEvalOp(tr, lib, op, dst)
			if err != nil {
				return 0, err
			}
			total += d.Seconds()
			opTimes = append(opTimes, float64(d)/float64(time.Millisecond))
			out.attempted += evalBatch
			want := op.c.wantReg[op.mi]
			if op.mix == 1 {
				want = op.c.wantUnif[op.mi]
			}
			if bad := mismatches(dst, want); bad > 0 {
				out.failed += bad
				out.note("%v %v %v %s: %d outputs differ from the oracle", op.c.fn, lib.formats[op.c.fi], fp.StandardModes[op.mi], mixNames[op.mix], bad)
			}
		}
		return total, nil
	}

	if cfg.tr == nil {
		passes, err := passLoop(cfg, func() (float64, error) { return pass(nil) })
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = peakRSSMB()
		// Each statistic is taken per window of evalWindowPasses passes
		// (enough operations for a 99th percentile) and the median over
		// windows is reported, so a disturbance in part of the run does not
		// decide the figure.
		var p50s, p99s, rates []float64
		w := evalWindowPasses * len(ops)
		for lo := 0; lo+w <= len(opTimes); lo += w {
			win := opTimes[lo : lo+w]
			p50s = append(p50s, median(win))
			p99s = append(p99s, tailQuantile(win))
			rates = append(rates, float64(w*evalBatch)/(sum(win)/1e3))
		}
		out.metrics["latency_p50_ms"] = median(p50s)
		out.metrics["throughput_per_s"] = median(rates)
		out.note("%d passes of %d operations of %d inputs, medians over %d windows of %d passes; p99 %.4f ms",
			len(passes), len(ops), evalBatch, len(rates), evalWindowPasses, median(p99s))
		return out, nil
	}

	// Traced: untraced and traced passes alternately (their medians give
	// the overhead), the traced ones with the kernels' span counters
	// attached, then the layer replay.
	var untraced, traced, untracedOps []float64
	rec := obs.New("perfbench")
	for r := 0; r < tracedRounds; r++ {
		d, err := pass(nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, d)
		untracedOps = append(untracedOps, opTimes[len(opTimes)-len(ops):]...)
		for _, k := range lib.kernels {
			k.Observe(rec.Root())
		}
		d, err = pass(cfg.tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, d)
		for _, k := range lib.kernels {
			k.Observe(nil)
		}
	}
	ctr := rec.Report().Counters
	tr := cfg.tr
	perOp := tracedRounds * float64(len(ops)) / float64(len(mixNames)) / float64(len(lib.formats)) * evalBatch // traced inputs per (mix, format)
	for fi, name := range formatNames {
		out.metrics["eval.batch_ns."+name] = tr.total("eval.Kernel.EvalBatch", mixLabel(0, lib.formats[fi])) * 1e9 / perOp
	}
	var uniform, regular float64
	for _, f := range lib.formats {
		uniform += tr.total("eval.Kernel.EvalBatch", mixLabel(1, f))
		regular += tr.total("eval.Kernel.EvalBatch", mixLabel(0, f))
	}
	perMix := perOp * float64(len(lib.formats))
	out.metrics["eval.uniform_ns"] = uniform * 1e9 / perMix
	out.metrics["eval.call_ns"] = tr.total("libm.Eval", "") * 1e9 / perMix
	out.metrics["libm.call_overhead_ns"] = out.metrics["eval.call_ns"] - regular*1e9/perMix
	if n := ctr[string(obs.CtrEvalInputs)]; n > 0 {
		out.metrics["eval.special_frac"] = float64(ctr[string(obs.CtrEvalSpecialHits)]) / float64(n)
	}
	if n := ctr[string(obs.CtrEvalTruncated)] + ctr[string(obs.CtrEvalFull)]; n > 0 {
		out.metrics["eval.truncated_frac"] = float64(ctr[string(obs.CtrEvalTruncated)]) / float64(n)
	}
	if err := layerSplit(tr, lib, cases, out); err != nil {
		return nil, err
	}
	out.metrics["tail.latency_p99_ms"] = tailQuantile(untracedOps)
	out.metrics["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	out.note("median untraced pass %.4f s, traced pass %.4f s", median(untraced), median(traced))
	return out, nil
}

func mixLabel(mix int, f fp.Format) string { return mixNames[mix] + "/" + f.String() }

// runEvalOp evaluates one operation into dst and returns its duration.
func runEvalOp(tr *tracer, lib *library, op evalOp, dst []uint64) (time.Duration, error) {
	f := lib.formats[op.c.fi]
	m := fp.StandardModes[op.mi]
	switch op.mix {
	case 0, 1:
		xs := op.c.regular
		if op.mix == 1 {
			xs = op.c.uniform
		}
		k := lib.kernels[kernelKey{op.c.fn, op.c.fi, m}]
		id := tr.begin("eval.Kernel.EvalBatch", mixLabel(op.mix, f), -1, -1)
		start := time.Now()
		k.EvalBatch(dst, xs)
		d := time.Since(start)
		tr.end(id)
		return d, nil
	default:
		id := tr.begin("libm.Eval", mixLabel(op.mix, f), -1, -1)
		start := time.Now()
		for i, x := range op.c.regular {
			y, err := libm.Eval(op.c.fn, x, f, m)
			if err != nil {
				return 0, err
			}
			dst[i] = y
		}
		d := time.Since(start)
		tr.end(id)
		return d, nil
	}
}

// layerSplit replays the kernel's per-input steps from outside, through
// each layer's public functions, on mix (a) of every (function, format,
// mode): reduction.Lowered.Reduce, .Special for inputs Reduce rejects,
// poly.Structure.Eval on the level's coefficient prefix,
// reduction.Lowered.Compensate, and fp.Rounder.Round on every result.
// Each loop is timed on its own (median of layerRepeat runs) and reported
// per input of the batch, so the parts and the batch add up; the residual
// is the batch minus the parts (special-table probe, piece scan, loop).
// The replayed outputs must equal the kernel's.
func layerSplit(tr *tracer, lib *library, cases []*evalCase, out *outcome) error {
	type acc struct{ batch, reduce, special, poly, comp, round float64 }
	per := make([]acc, len(lib.formats))
	count := make([]float64, len(lib.formats))
	for _, c := range cases {
		res := lib.results[c.fn]
		for mi, m := range fp.StandardModes {
			k := lib.kernels[kernelKey{c.fn, c.fi, m}]
			r, err := replay(tr, res, k, c.regular)
			if err != nil {
				return err
			}
			if bad := mismatches(r.out, c.wantReg[mi]); bad > 0 {
				out.failed += bad
				out.note("%v %v %v: %d layer-replay outputs differ from the oracle", c.fn, k.Format(), m, bad)
			}
			a := &per[c.fi]
			a.batch += r.batch
			a.reduce += r.reduce
			a.special += r.special
			a.poly += r.poly
			a.comp += r.comp
			a.round += r.round
			count[c.fi]++
		}
	}
	for fi, name := range formatNames {
		a, n := per[fi], count[fi]
		out.metrics["reduction.reduce_ns."+name] = a.reduce / n
		out.metrics["reduction.special_ns."+name] = a.special / n
		out.metrics["poly.eval_ns."+name] = a.poly / n
		out.metrics["reduction.compensate_ns."+name] = a.comp / n
		out.metrics["fp.round_ns."+name] = a.round / n
		out.metrics["eval.residual_ns."+name] = (a.batch - a.reduce - a.special - a.poly - a.comp - a.round) / n
	}
	return nil
}

// replayResult is the per-input cost (ns) of each replayed layer and the
// replayed outputs.
type replayResult struct {
	batch, reduce, special, poly, comp, round float64
	out                                       []uint64
}

// replay runs one kernel's steps layer by layer over xs.
func replay(tr *tracer, res *gen.Result, k *eval.Kernel, xs []float64) (replayResult, error) {
	n := len(xs)
	li := k.Level()
	red := reduction.Lower(res.Fn)
	rnd := fp.NewRounder(k.Format(), k.Mode())
	label := fmt.Sprintf("%v/%v/%v", res.Fn, k.Format(), k.Mode())
	proxies := make(map[uint64]float64, len(res.Specials[li]))
	for _, s := range res.Specials[li] {
		proxies[math.Float64bits(s.X)] = s.Proxy
	}

	// Outside every timed loop: which path each input takes, and the
	// coefficient prefix of its piece.
	ctxs := make([]reduction.Ctx, n)
	regular := make([]bool, n)
	for i, x := range xs {
		ctxs[i], regular[i] = red.Reduce(x)
	}
	vals := make([]float64, n)
	var specialIdx, polyIdx []int
	for i, x := range xs {
		switch p, ok := proxies[math.Float64bits(x)]; {
		case !regular[i]:
			specialIdx = append(specialIdx, i)
		case ok:
			vals[i] = p
		default:
			polyIdx = append(polyIdx, i)
		}
	}
	type term struct {
		coeffs []float64
		terms  int
	}
	np := len(res.Kernels)
	terms := make([][]term, np)
	for pi := range res.Kernels {
		terms[pi] = make([]term, n)
		pieces := res.Kernels[pi].Pieces
		for _, i := range polyIdx {
			r := ctxs[i].R
			j := 0
			for j < len(pieces)-1 && r >= pieces[j].Hi {
				j++
			}
			terms[pi][i] = term{pieces[j].Coeffs, pieces[j].LevelTerms[li]}
		}
	}
	ys := make([][]float64, 2)
	for pi := range ys {
		ys[pi] = make([]float64, n)
	}

	timed := func(name string, body func()) float64 {
		ds := make([]float64, layerRepeat)
		for r := range ds {
			start := time.Now()
			body()
			d := time.Since(start)
			ds[r] = float64(d.Nanoseconds())
			tr.record(name, label, -1, start, d)
		}
		return median(ds) / float64(n)
	}
	var r replayResult
	r.out = make([]uint64, n)
	dst := make([]uint64, n)
	r.batch = timed("eval.Kernel.EvalBatch", func() { k.EvalBatch(dst, xs) })
	r.reduce = timed("reduction.Lowered.Reduce", func() {
		for i, x := range xs {
			ctxs[i], regular[i] = red.Reduce(x)
		}
	})
	r.special = timed("reduction.Lowered.Special", func() {
		for _, i := range specialIdx {
			vals[i] = red.Special(xs[i])
		}
	})
	r.poly = timed("poly.Structure.Eval", func() {
		for pi := 0; pi < np; pi++ {
			s := res.Kernels[pi].Structure
			for _, i := range polyIdx {
				t := terms[pi][i]
				ys[pi][i] = s.Eval(t.coeffs, t.terms, ctxs[i].R)
			}
		}
	})
	r.comp = timed("reduction.Lowered.Compensate", func() {
		for _, i := range polyIdx {
			vals[i] = red.Compensate(ctxs[i], ys[0][i], ys[1][i])
		}
	})
	r.round = timed("fp.Rounder.Round", func() {
		for i, v := range vals {
			r.out[i] = rnd.Round(v)
		}
	})
	for i := range dst {
		if dst[i] != r.out[i] {
			return r, fmt.Errorf("layer replay of %s disagrees with the kernel at input %v", label, xs[i])
		}
	}
	return r, nil
}
