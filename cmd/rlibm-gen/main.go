// Command rlibm-gen runs the RLIBM-Prog generation pipeline: it enumerates
// every input of every representation level, builds the constraint system,
// solves it with the Clarkson randomized LP algorithm, verifies the result
// exhaustively (patching stragglers into the special-input tables), and
// optionally emits the coefficient tables as Go source into internal/libm.
//
// The pipeline runs as explicit stages — Enumerate, Reduce, Solve, Verify —
// each checkpointed in a content-addressed artifact cache (-cache-dir), so
// an interrupted run resumes at stage granularity and repeated runs with a
// different seed still reuse the expensive enumeration. -no-cache restores
// the fully in-memory behavior.
//
// With -baseline it instead generates the RLibm-All comparison library:
// piecewise polynomials with large sub-domain counts, a single (largest)
// level, no progressive term counts.
//
// Typical use:
//
//	rlibm-gen -emit internal/libm                 # all ten functions
//	rlibm-gen -baseline -emit internal/libm      # RLibm-All baseline
//	rlibm-gen -func log2 -bits 22 -v             # one function, smaller scale
//	rlibm-gen -func exp2 -levels F10,8:F12,8     # explicit tiny level list
//	rlibm-gen -func cospi -report                # write report.json next to the cache
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		fnFlag   = flag.String("func", "all", "function to generate (all or one of ln,log2,log10,exp,exp2,exp10,sinh,cosh,sinpi,cospi)")
		baseline = flag.Bool("baseline", false, "generate the RLibm-All piecewise baseline instead")
		emitDir  = flag.String("emit", "", "directory to write generated Go table files into")
		noVerify = flag.Bool("skip-verify", false, "skip the exhaustive verification/repair pass")
		progRO   = flag.Bool("progressive-ro", false, "generate lower levels against round-to-odd intervals (all-modes progressive guarantee; extension beyond the paper)")
		levels   = flag.String("levels", "", "colon-separated explicit level list, e.g. F10,8:F12,8 (overrides -bits)")
	)
	flag.Parse()
	common.StandardLadder = !*baseline && *levels == ""
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := common.Context()
	defer cancel()
	rec := common.NewRecorder()
	ctx = obs.WithSpan(ctx, rec.Root())
	store, err := common.Store()
	if err != nil {
		log.Fatal(err)
	}
	defer common.CloseStore()

	var fns []bigmath.Func
	if *fnFlag == "all" {
		fns = bigmath.AllFuncs
	} else {
		for _, name := range strings.Split(*fnFlag, ",") {
			fn, err := bigmath.ParseFunc(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			fns = append(fns, fn)
		}
	}

	logf := common.Logf()
	failed := false

	for _, fn := range fns {
		var opt gen.Options
		kind := "progressive"
		if *baseline {
			kind = "rlibm-all-baseline"
			opt = common.BaselineOptions(fn, logf)
		} else {
			opt = common.ProgressiveOptions(*progRO, logf)
		}
		if *levels != "" {
			lv, err := cli.ParseLevels(*levels)
			if err != nil {
				log.Fatal(err)
			}
			opt.Levels = lv
		}
		opt.Oracle = oracle.New(fn)

		var res *gen.Result
		patched := 0
		if *noVerify {
			res, err = gen.GenerateStaged(ctx, fn, opt, store)
		} else {
			res, patched, err = cli.GenerateVerifiedSharded(ctx, fn, opt, store, common.Shard())
		}
		if err != nil {
			log.Printf("%v: %v", fn, err)
			failed = true
			continue
		}
		st := res.Stats
		fmt.Printf("%-6s %-20s pieces=%v degree=%v terms=%v specials=%v(+%d repaired) mem=%dB raw=%d rows=%d iters=%d lucky=%d exact=%d dur=%v\n",
			fn, kind, res.NumPieces(), res.MaxDegree(len(res.Levels)-1),
			termsMatrix(res), res.NumSpecials(), patched, res.CoefficientBytes(),
			st.RawConstraints, st.MergedRows, st.Iters, st.Lucky, st.ExactSolves,
			st.Duration.Round(1e6))

		if *emitDir != "" {
			name := fmt.Sprintf("zz_generated_%s.go", fn)
			registerFn := "register"
			if *baseline {
				name = fmt.Sprintf("zz_baseline_%s.go", fn)
				registerFn = "registerBaseline"
			}
			src := gen.EmitGo(res, "libm", registerFn)
			if err := os.WriteFile(filepath.Join(*emitDir, name), []byte(src), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := common.FinishRun(rec, "rlibm-gen"); err != nil {
		log.Print(err)
		failed = true
	}
	stopProfiles()
	exitIf(failed)
}

func exitIf(failed bool) {
	if failed {
		os.Exit(1)
	}
}

func termsMatrix(res *gen.Result) [][]int {
	out := make([][]int, len(res.Levels))
	for li := range res.Levels {
		out[li] = res.TermsAt(li)
	}
	return out
}
