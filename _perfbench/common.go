package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/oracle"
)

// setupSamples × setupBatch is how many times a run repeats its set-up
// (see measureSetup).
const (
	setupSamples = 21
	setupBatch   = 20
)

// progressive is where the library's tables come from; tests substitute
// corrupted tables to show that wrong outputs are counted.
var progressive = libm.Progressive

// kernelKey names one compiled serving kernel.
type kernelKey struct {
	fn   bigmath.Func
	f    int // index into library.formats
	mode fp.Mode
}

// library is the shipped math library as every workload loads it: the
// generated tables of internal/libm and one compiled batch kernel per
// (function, format, mode) — the set-up every user of the tables pays.
type library struct {
	formats []fp.Format // bfloat16, tensorfloat32, the largest shipped format
	results [bigmath.NumFuncs]*gen.Result
	kernels map[kernelKey]*eval.Kernel
}

// loadLibrary loads the shipped tables and compiles every serving kernel.
func loadLibrary() (*library, error) {
	largest, ok := libm.LargestFormat()
	if !ok {
		return nil, fmt.Errorf("no generated tables in internal/libm")
	}
	lib := &library{
		formats: []fp.Format{fp.Bfloat16, fp.TensorFloat32, largest},
		kernels: make(map[kernelKey]*eval.Kernel),
	}
	for _, fn := range bigmath.AllFuncs {
		res, err := progressive(fn)
		if err != nil {
			return nil, err
		}
		lib.results[fn] = res
		for fi, f := range lib.formats {
			for _, m := range fp.StandardModes {
				k, err := eval.Compile(res, f, m)
				if err != nil {
					return nil, err
				}
				lib.kernels[kernelKey{fn, fi, m}] = k
			}
		}
	}
	return lib, nil
}

// roProxy is the oracle's round-to-odd result of fn(x) at f+2 bits, as a
// float64: every standard mode's correctly rounded result in f is this
// value rounded (the derivation internal/verify uses).
func roProxy(orc *oracle.Oracle, f fp.Format, x float64) float64 {
	ext := f.Extend(2)
	return ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
}

// expected returns the correctly rounded result bits of orc's function
// over xs in f under each mode (indexed like modes), from a fresh
// round-to-odd proxy per input, computed on workers goroutines.
func expected(orc *oracle.Oracle, f fp.Format, xs []float64, modes []fp.Mode, workers int) [][]uint64 {
	want := make([][]uint64, len(modes))
	for i := range want {
		want[i] = make([]uint64, len(xs))
	}
	parallelRange(workers, len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ro := roProxy(orc, f, xs[i])
			for mi, m := range modes {
				want[mi][i] = f.FromFloat64(ro, m)
			}
		}
	})
	return want
}

// mismatches counts the positions where got and want differ.
func mismatches(got, want []uint64) int64 {
	var n int64
	for i := range want {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

// parallelRange splits [0, n) into workers contiguous slices and runs body
// on each in its own goroutine, returning when all are done.
func parallelRange(workers, n int, body func(lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// sampleBits draws n uniform bit patterns of f.
func sampleBits(rng *rand.Rand, f fp.Format, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & (f.NumValues() - 1)
	}
	return out
}

// passLoop runs pass until the run's budget would be exceeded by another
// pass of the same length (always at least once), returning each pass's
// duration in seconds.
func passLoop(cfg config, pass func() (float64, error)) ([]float64, error) {
	var durs []float64
	start := time.Now()
	for {
		d, err := pass()
		if err != nil {
			return durs, err
		}
		durs = append(durs, d)
		if time.Since(start).Seconds()+d > cfg.budget.Seconds() {
			return durs, nil
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
