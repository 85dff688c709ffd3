// Command rlibm-table1 regenerates Table 1 of the paper from the generated
// libraries: per function, the RLibm-All baseline's sub-domain count,
// degree, term count and coefficient storage against RLIBM-Prog's pieces,
// per-representation degrees and term counts, special-input counts,
// coefficient storage and the memory reduction factor.
//
// By default the table is rendered from the emitted tables in internal/libm.
// With -generate it generates both libraries on the fly through the staged
// pipeline, checkpointing every stage in the shared artifact cache
// (-cache-dir) — a warm cache skips the oracle-driven enumeration entirely,
// and sibling commands (rlibm-table2, rlibm-fig4 -generate) reuse the same
// artifacts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	common := cli.Register(flag.CommandLine)
	generate := flag.Bool("generate", false, "generate the libraries through the staged pipeline instead of using the emitted internal/libm tables")
	flag.Parse()
	common.StandardLadder = *generate
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()
	rec := common.NewRecorder()

	prog, base := libm.Progressive, libm.RLibmAll
	if *generate {
		ctx, cancel := common.Context()
		defer cancel()
		ctx = obs.WithSpan(ctx, rec.Root())
		store, err := common.Store()
		if err != nil {
			log.Fatal(err)
		}
		defer common.CloseStore()
		logf := common.Logf()
		prog = func(fn bigmath.Func) (*gen.Result, error) {
			res, _, err := cli.GenerateVerified(ctx, fn, common.ProgressiveOptions(false, logf), store)
			return res, err
		}
		base = func(fn bigmath.Func) (*gen.Result, error) {
			res, _, err := cli.GenerateVerified(ctx, fn, common.BaselineOptions(fn, logf), store)
			return res, err
		}
	} else {
		missing := false
		for _, fn := range bigmath.AllFuncs {
			if !libm.Have(fn) || !libm.HaveBaseline(fn) {
				fmt.Fprintf(os.Stderr, "missing generated tables for %v\n", fn)
				missing = true
			}
		}
		if missing {
			fmt.Fprintln(os.Stderr, "run: go run ./cmd/rlibm-gen -emit internal/libm && go run ./cmd/rlibm-gen -baseline -emit internal/libm (or pass -generate)")
			os.Exit(1)
		}
	}

	if err := report.Table1(os.Stdout, bigmath.AllFuncs, prog, base); err != nil {
		log.Fatal(err)
	}
	if err := common.FinishRun(rec, "rlibm-table1"); err != nil {
		log.Fatal(err)
	}
}
