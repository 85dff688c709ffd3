package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/oracle"
	"repro/internal/verify"
)

// TestMetricTableMatchesBenchmarkJSON keeps the metrics the command
// reports in step with the ones BENCHMARK.json declares.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []metric
	for _, m := range bench.EndToEnd {
		declared = append(declared, metric{name: m.Name, unit: m.Unit, kind: endToEnd})
	}
	for _, m := range bench.PerLayer {
		declared = append(declared, metric{name: m.Name, unit: m.Unit, kind: perLayer})
	}
	if !reflect.DeepEqual(declared, metricTable) {
		t.Fatalf("BENCHMARK.json declares\n%v\nthe command reports\n%v", declared, metricTable)
	}
}

// corrupt returns a copy of res whose first kernel polynomial has every
// piece's linear coefficient scaled by 1+rel.
func corrupt(res *gen.Result, rel float64) *gen.Result {
	bad := &gen.Result{Fn: res.Fn, Levels: res.Levels, Specials: res.Specials, ProgressiveRO: res.ProgressiveRO}
	for ki, kp := range res.Kernels {
		cp := gen.KernelPoly{Structure: kp.Structure}
		for _, p := range kp.Pieces {
			p.Coeffs = append([]float64(nil), p.Coeffs...)
			if ki == 0 && len(p.Coeffs) > 1 {
				p.Coeffs[1] *= 1 + rel
			}
			cp.Pieces = append(cp.Pieces, p)
		}
		bad.Kernels = append(bad.Kernels, cp)
	}
	return bad
}

// withCorruptTables makes loadLibrary serve a corrupted exp2 until the
// test ends.
func withCorruptTables(t *testing.T) {
	res, err := libm.Progressive(bigmath.Exp2)
	if err != nil {
		t.Fatal(err)
	}
	bad := corrupt(res, 1e-2)
	orig := progressive
	progressive = func(fn bigmath.Func) (*gen.Result, error) {
		if fn == bigmath.Exp2 {
			return bad, nil
		}
		return orig(fn)
	}
	t.Cleanup(func() { progressive = orig })
}

// TestCorruptedOutputIsCounted shows, for every workload, that a wrong
// output reaches failed: the checks against the oracle are live.
func TestCorruptedOutputIsCounted(t *testing.T) {
	t.Run("gen", func(t *testing.T) {
		res, err := libm.Progressive(bigmath.Exp2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		if bad := checkGenerated(res, rng); bad != 0 {
			t.Fatalf("shipped exp2 tables: %d sampled outputs counted wrong", bad)
		}
		if bad := checkGenerated(corrupt(res, 1e-2), rng); bad == 0 {
			t.Fatal("corrupted exp2 tables: no sampled output counted wrong")
		}
	})
	t.Run("check", func(t *testing.T) {
		out := &outcome{}
		tallyReports(out, bigmath.Exp2, []verify.Report{{Format: checkFormat, Mode: fp.RoundNearestEven,
			Checked: checkFormat.NumValues(), Mismatches: []uint64{42}}})
		if out.failed != 1 {
			t.Fatalf("a reported mismatch counted as %d failures", out.failed)
		}
		withCorruptTables(t)
		lib, err := loadLibrary()
		if err != nil {
			t.Fatal(err)
		}
		if bad := crossCheck(&outcome{}, lib, bigmath.Exp2, rand.New(rand.NewSource(1))); bad == 0 {
			t.Fatal("corrupted exp2 tables: cross-check counted nothing")
		}
	})
	t.Run("eval", func(t *testing.T) {
		withCorruptTables(t)
		out, err := runEval(config{seed: 1, budget: 200 * time.Millisecond, workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed == 0 || out.failed >= out.attempted {
			t.Fatalf("corrupted exp2 kernels: %d of %d outputs counted wrong", out.failed, out.attempted)
		}
	})
	t.Run("serve", func(t *testing.T) {
		st, err := startServer()
		if err != nil {
			t.Fatal(err)
		}
		defer stopServer(st)
		httpT, bulkT, err := serveTemplates(rand.New(rand.NewSource(1)), st.formats, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newClient(st)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		wrongHTTP := *httpT[0]
		wrongHTTP.want = append([]uint64(nil), wrongHTTP.want...)
		wrongHTTP.want[0] ^= 1
		wrongBulk := *bulkT[0]
		wrongBulk.want = append([]uint64(nil), wrongBulk.want...)
		wrongBulk.want[len(wrongBulk.want)-1] ^= 1
		arrivals := []arrival{
			{tmpl: httpT[0]}, {tmpl: &wrongHTTP, due: time.Millisecond},
			{tmpl: bulkT[0], bulk: true}, {tmpl: &wrongBulk, bulk: true, due: time.Millisecond},
		}
		samples, err := runPhase(c, nil, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []bool{true, false, true, false} {
			if samples[i].ok != want {
				t.Errorf("request %d: ok=%v, want %v", i, samples[i].ok, want)
			}
		}
	})
}

// countsConfig is the reduced configuration the determinism test runs the
// counting passes at: the same code paths as the gen and check workloads,
// on a smaller ladder and format so the test takes seconds.
var (
	countsFuncs  = []bigmath.Func{bigmath.Exp2, bigmath.Log2, bigmath.SinPi, bigmath.Cosh}
	countsLadder = "F10,8:F12,8"
	countsFormat = fp.MustFormat(14, 8)
)

func genCounts(t *testing.T, workers int) map[string]float64 {
	levels, err := cli.ParseLevels(countsLadder)
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	counts, err := genTraced(context.Background(), config{workers: workers}, levels, countsFuncs, out, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d generated functions failed their check", out.failed)
	}
	return counts
}

func checkCounts(t *testing.T, workers int) map[string]float64 {
	counts := make(map[string]float64)
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.Progressive(fn)
		if err != nil {
			t.Fatal(err)
		}
		orc := oracle.New(fn)
		for _, r := range verify.Exhaustive(verify.NewGenImpl(res), orc, countsFormat, fp.StandardModes, workers) {
			if !r.Correct() {
				t.Fatalf("%v: %v", fn, r)
			}
		}
		addOracleCounts(counts, orc.Stats())
	}
	return counts
}

// TestCountsRepeat pins the counts a later change may cite as counts
// rather than timings: the clarkson.*, gen.rows_* and oracle.* counts of
// the gen pass and the oracle path counts of the check pass are identical
// across two runs and across 1 and 2 workers.
func TestCountsRepeat(t *testing.T) {
	for name, count := range map[string]func(*testing.T, int) map[string]float64{"gen": genCounts, "check": checkCounts} {
		t.Run(name, func(t *testing.T) {
			first := count(t, 2)
			if len(first) == 0 {
				t.Fatal("no counts")
			}
			for _, workers := range []int{2, 1} {
				if again := count(t, workers); !reflect.DeepEqual(first, again) {
					t.Fatalf("workers=%d: counts %v differ from the first run's %v", workers, again, first)
				}
			}
		})
	}
}
