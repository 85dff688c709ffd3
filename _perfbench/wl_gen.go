package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// The gen workload: cold generation of verified tables for all ten
// functions on a fixed level ladder, as `rlibm-gen -func all -levels
// F12,8:F14,8:F16,8 -no-cache -workers 2` does it. The generator seed and
// the function order are fixed, so every benchmark seed does the same
// work; the benchmark seed draws the inputs the generated tables are
// checked on. The operation whose latency is reported is one pass over
// all ten functions, the command's unit of work; a run makes one or two,
// and the tail is the slowest.
const (
	genLadder      = "F12,8:F14,8:F16,8"
	genSolverSeed  = 1
	genCheckInputs = 256 // sampled inputs per level checked against the oracle
)

// genOptions are the generation options of one cold function run, with a
// fresh oracle.
func genOptions(fn bigmath.Func, levels []fp.Format, workers int) gen.Options {
	return gen.Options{Levels: levels, Seed: genSolverSeed, Workers: workers, Oracle: oracle.New(fn)}
}

// ladderInputs is the number of inputs one function's generation covers:
// every value of every level.
func ladderInputs(levels []fp.Format) float64 {
	var n float64
	for _, f := range levels {
		n += float64(f.NumValues())
	}
	return n
}

// genState is the gen workload's set-up: the level ladder, and the
// shipped library, which every workload's set-up loads so that setup_s
// measures the same library load on all of them.
type genState struct {
	lib    *library
	levels []fp.Format
}

func runGen(cfg config) (*outcome, error) {
	setupS, st, err := measureSetup(setupSamples, setupBatch, func() (*genState, error) {
		lib, err := loadLibrary()
		if err != nil {
			return nil, err
		}
		levels, err := cli.ParseLevels(genLadder)
		return &genState{lib: lib, levels: levels}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := bigmath.AllFuncs // fixed: the first function to need a bigmath constant pays for it
	out := &outcome{metrics: make(map[string]float64)}
	ctx := context.Background()

	// One untraced pass: every function through cli.GenerateVerified into
	// a fresh in-memory store, each output table checked afterwards.
	fnTimes := make(funcLatencies)
	pass := func() (float64, error) {
		store := pipeline.NewMemStore()
		var total float64
		for _, fn := range order {
			runtime.GC() // each function starts on a collected heap
			start := time.Now()
			res, _, err := cli.GenerateVerified(ctx, fn, genOptions(fn, st.levels, cfg.workers), store)
			d := time.Since(start).Seconds()
			total += d
			fnTimes[fn] = append(fnTimes[fn], d*1e3)
			out.attempted++
			if err != nil {
				out.failed++
				out.note("%v: generation failed: %v", fn, err)
				continue
			}
			if bad := checkGenerated(res, rng); bad > 0 {
				out.failed++
				out.note("%v: %d sampled outputs differ from the oracle", fn, bad)
			}
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
		out.metrics["throughput_per_s"] = float64(len(passes)) * float64(len(order)) * ladderInputs(st.levels) / sum(passes)
		out.note("gen_s (all ten functions, median of %d passes) = %.3f s", len(passes), median(passes))
		return out, nil
	}

	untraced, err := pass()
	if err != nil {
		return nil, err
	}
	counts, err := genTraced(ctx, cfg, st.levels, order, out, rng)
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		out.metrics[k] = v
	}
	tr := cfg.tr
	traced := tr.total("gen.EnumerateStaged", "") + tr.total("gen.GenerateStaged", "") + tr.total("cli.GenerateVerified", "")
	out.metrics["gen.enumerate_s"] = tr.total("gen.EnumerateStaged", "")
	out.metrics["gen.solve_s"] = tr.total("gen.GenerateStaged", "")
	for _, fn := range bigmath.AllFuncs {
		out.metrics["gen.solve_s."+fn.String()] = tr.total("gen.GenerateStaged", fn.String())
	}
	out.metrics["verify.repair_s"] = tr.total("cli.GenerateVerified", "")
	out.metrics["tail.latency_p99_ms"] = untraced * 1e3 // one pass: the slowest is the only one
	out.metrics["trace.overhead_frac"] = traced/untraced - 1
	out.note("untraced pass %.3f s, traced staged pass %.3f s", untraced, traced)
	return out, nil
}

// genTraced runs the three stages of every function as separate traced
// calls — enumerate (gen.EnumerateStaged), solve with the reduce stage
// warm (gen.GenerateStaged), repair with the solve stage warm
// (cli.GenerateVerified) — and returns the generator's effort counts.
// With a nil tracer it is the counting pass the determinism test runs.
func genTraced(ctx context.Context, cfg config, levels []fp.Format, order []bigmath.Func, out *outcome, rng *rand.Rand) (map[string]float64, error) {
	tr := cfg.tr
	counts := make(map[string]float64)
	for _, fn := range order {
		runtime.GC()
		store := pipeline.NewMemStore()
		opt := genOptions(fn, levels, cfg.workers)
		root := tr.begin("perfbench.generate", fn.String(), -1, -1)

		id := tr.begin("gen.EnumerateStaged", fn.String(), root, -1)
		_, _, err := gen.EnumerateStaged(ctx, fn, opt, store)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%v: enumerate: %w", fn, err)
		}

		id = tr.begin("gen.GenerateStaged", fn.String(), root, -1)
		res, err := gen.GenerateStaged(ctx, fn, opt, store)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%v: solve: %w", fn, err)
		}

		id = tr.begin("cli.GenerateVerified", fn.String(), root, -1)
		verified, _, err := cli.GenerateVerified(ctx, fn, opt, store)
		tr.end(id)
		tr.end(root)
		out.attempted++
		if err != nil {
			out.failed++
			out.note("%v: verification failed: %v", fn, err)
		} else if bad := checkGenerated(verified, rng); bad > 0 {
			out.failed++
			out.note("%v: %d sampled outputs differ from the oracle", fn, bad)
		}

		s := res.Stats
		counts["clarkson.iters"] += float64(s.Iters)
		counts["clarkson.attempts"] += float64(s.Attempts)
		counts["clarkson.lucky"] += float64(s.Lucky)
		counts["clarkson.exact_solves"] += float64(s.ExactSolves)
		counts["clarkson.exact_solves."+fn.String()] = float64(s.ExactSolves)
		counts["gen.rows_raw"] += float64(s.RawConstraints)
		counts["gen.rows_merged"] += float64(s.MergedRows)
		counts["oracle.queries"] += float64(s.Oracle.Total())
		counts["oracle.full_evals"] += float64(s.Oracle.FullEvals)
	}
	if counts["clarkson.iters"] > 0 {
		counts["lp.exact_frac"] = counts["clarkson.exact_solves"] / counts["clarkson.iters"]
	}
	return counts, nil
}

// checkGenerated compares a generated result with a fresh oracle on
// genCheckInputs sampled inputs per level, under the modes the level is
// certified for (round-to-nearest below the largest level, all five at
// it), and returns the number of differing outputs.
func checkGenerated(res *gen.Result, rng *rand.Rand) int64 {
	orc := oracle.New(res.Fn)
	var bad int64
	for li, lvl := range res.Levels {
		modes := []fp.Mode{fp.RoundNearestEven}
		if li == len(res.Levels)-1 || res.ProgressiveRO {
			modes = fp.StandardModes
		}
		xs := make([]float64, genCheckInputs)
		for i, b := range sampleBits(rng, lvl, genCheckInputs) {
			xs[i] = lvl.Decode(b)
		}
		want := expected(orc, lvl, xs, modes, 1)
		for mi, m := range modes {
			got := make([]uint64, len(xs))
			for i, x := range xs {
				got[i] = res.Eval(x, li, lvl, m)
			}
			bad += mismatches(got, want[mi])
		}
	}
	return bad
}
