// Command rlibm-table2 regenerates Table 2 of the paper: for each of the
// ten functions and each library — RLIBM-Prog, the glibc substitute, the
// Intel substitute, the CR-LIBM substitute, and the RLibm-All baseline — it
// reports whether the library produces correctly rounded results for
// (1) bfloat16 and tensorfloat32 with rn, (2) the largest ("float") format
// with rn, and (3) the largest format under all standard rounding modes.
//
// bfloat16 and tensorfloat32 are always checked exhaustively; the largest
// format is sampled by default (-exhaustive enumerates all of it, which
// takes minutes per function on one core).
//
// By default the generated libraries come from the emitted internal/libm
// tables; with -generate they are generated through the staged pipeline,
// reusing the shared artifact cache (-cache-dir) — after an rlibm-table1
// -generate run the enumeration is never repeated.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/verify"
)

type column struct {
	name string
	impl func(fn bigmath.Func) verify.Impl
	// modes the library supports for the all-rm column.
	allModes []fp.Mode
}

type crAdapter struct{ lib baseline.CRLibm }

func (c crAdapter) Bits(x float64, out fp.Format, mode fp.Mode) uint64 {
	return c.lib.Bits(x, out, mode)
}

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		exhaustive = flag.Bool("exhaustive", false, "enumerate the largest format exhaustively (slow)")
		samples    = flag.Int("samples", 400000, "sample count per mode for the largest format")
		generate   = flag.Bool("generate", false, "generate the RLIBM libraries through the staged pipeline instead of using the emitted internal/libm tables")
	)
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

	progFor, baseFor := libm.Progressive, libm.RLibmAll
	largest, haveTables := libm.LargestFormat()
	if *generate {
		ctx, cancel := common.Context()
		defer cancel()
		ctx = obs.WithSpan(ctx, rec.Root())
		store, err := common.Store()
		if err != nil {
			log.Fatal(err)
		}
		defer common.CloseStore()
		progFor = func(fn bigmath.Func) (*gen.Result, error) {
			res, _, err := cli.GenerateVerified(ctx, fn, common.ProgressiveOptions(false, nil), store)
			return res, err
		}
		baseFor = func(fn bigmath.Func) (*gen.Result, error) {
			res, _, err := cli.GenerateVerified(ctx, fn, common.BaselineOptions(fn, nil), store)
			return res, err
		}
		largest = fp.MustFormat(common.Bits, 8)
	} else if !haveTables {
		fmt.Fprintln(os.Stderr, "no generated tables; run cmd/rlibm-gen -emit internal/libm first (or pass -generate)")
		os.Exit(1)
	}
	fourModes := []fp.Mode{fp.RoundNearestEven, fp.RoundTowardZero, fp.RoundTowardPositive, fp.RoundTowardNegative}
	columns := []column{
		{"RLIBM-Prog", func(fn bigmath.Func) verify.Impl {
			res, err := progFor(fn)
			if err != nil {
				return nil
			}
			return verify.NewGenImpl(res)
		}, fp.StandardModes},
		{"glibc-sub", func(fn bigmath.Func) verify.Impl { return baseline.MathLibm{Fn: fn} }, fp.StandardModes},
		{"intel-sub", func(fn bigmath.Func) verify.Impl { return baseline.DDLibm{Fn: fn} }, fp.StandardModes},
		{"crlibm-sub", func(fn bigmath.Func) verify.Impl { return crAdapter{baseline.CRLibm{Fn: fn}} }, fourModes},
		{"RLibm-All", func(fn bigmath.Func) verify.Impl {
			res, err := baseFor(fn)
			if err != nil {
				return nil
			}
			return verify.NewGenImpl(res)
		}, fp.StandardModes},
	}

	fmt.Printf("Table 2: correctly rounded results for all inputs (largest format %v", largest)
	if *exhaustive {
		fmt.Println(", exhaustive)")
	} else {
		fmt.Printf(", sampled %d/mode)\n", *samples)
	}
	fmt.Println("columns per library: BF16&TF32 rn | largest rn | largest all-rm (crlibm-sub: 4 modes, no ra)")
	fmt.Println(strings.Repeat("=", 20+22*len(columns)))
	fmt.Printf("%-7s", "f(x)")
	for _, c := range columns {
		fmt.Printf(" | %-18s", c.name)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 20+22*len(columns)))

	mark := func(correct, supported bool) string {
		if !supported {
			return "N/A"
		}
		if correct {
			return "Y"
		}
		return "X"
	}
	for _, fn := range bigmath.AllFuncs {
		orc := oracle.New(fn)
		fmt.Printf("%-7s", fn)
		for _, col := range columns {
			impl := col.impl(fn)
			if impl == nil {
				fmt.Printf(" | %-18s", "missing")
				continue
			}
			smallOK := allCorrect(verify.Exhaustive(impl, orc, fp.Bfloat16, []fp.Mode{fp.RoundNearestEven}, common.Workers)) &&
				allCorrect(verify.Exhaustive(impl, orc, fp.TensorFloat32, []fp.Mode{fp.RoundNearestEven}, common.Workers))
			var rnReports, allReports []verify.Report
			if *exhaustive {
				rnReports = verify.Exhaustive(impl, orc, largest, []fp.Mode{fp.RoundNearestEven}, common.Workers)
				allReports = verify.Exhaustive(impl, orc, largest, col.allModes, common.Workers)
			} else {
				rnReports = verify.Sampled(impl, orc, largest, []fp.Mode{fp.RoundNearestEven}, *samples, common.Seed, common.Workers)
				allReports = verify.Sampled(impl, orc, largest, col.allModes, *samples, common.Seed+1, common.Workers)
			}
			fmt.Printf(" | %-4s %-4s %-8s", mark(smallOK, true),
				mark(allCorrect(rnReports), true), mark(allCorrect(allReports), true))
		}
		fmt.Println()
	}
	fmt.Println(strings.Repeat("-", 20+22*len(columns)))
	fmt.Println("Y = correctly rounded for all checked inputs, X = wrong results found.")
	fmt.Println("Comparator substitutes compute in the scaled-double working format F49,10 (see DESIGN.md).")
	if err := common.FinishRun(rec, "rlibm-table2"); err != nil {
		log.Fatal(err)
	}
}

func allCorrect(reports []verify.Report) bool {
	for _, r := range reports {
		if !r.Correct() {
			return false
		}
	}
	return true
}
