// Command perfbench is the end-to-end benchmark of the repository: one
// command that drives the public entry points of the generator, the
// verifier, the serving kernels and the evaluation service the way their
// users do, checks every output against the correctly rounding oracle, and
// prints the measured metrics.
//
//	perfbench --workload gen|check|eval|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics (set-up time, peak
// memory, median operation latency, throughput). With --trace 1 it reports
// the per-layer split instead: the benchmark records a span around every
// call it makes into a layer's public functions, keeps the spans in
// memory, writes them to --trace-out when the run ends and derives the
// layer metrics from them. A traced run also runs the workload untraced,
// reports the difference as the tracing overhead, and reports the tail
// latency of the untraced part.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// A human-readable summary goes to standard error. _perfbench/run.sh builds
// the command from source and runs it; see provenance.json for the
// workloads, the layer→end-to-end map and the environment it was tuned on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	budget  time.Duration // how long the measured part of the run may take
	workers int           // worker goroutines of the generator and verifier pools
	tr      *tracer       // non-nil on a traced run
}

// outcome is what every workload returns: the correctness tally and the
// metric values of the requested kind (end-to-end or per-layer).
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string // extra summary lines for standard error
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"gen":   runGen,
	"check": runCheck,
	"eval":  runEval,
	"serve": runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: gen, check, eval or serve")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Float64("seconds", 10, "how long the measured part of the run takes")
		trace    = flag.Int("trace", 0, "1 reports the per-layer split from a traced run, 0 the end-to-end metrics")
		traceOut = flag.String("trace-out", "", "file the spans of a traced run are written to (default .bench_build/trace/<workload>-<seed>.json)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: invalid flags: --workload must be one of gen, check, eval, serve; --seconds > 0; --trace 0 or 1; --seed >= 0\n")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		workers: 2,
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	printEnvironment(*workload, cfg)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	kind := endToEnd
	if cfg.tr != nil {
		kind = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", *workload, *seed))
		}
		if err := cfg.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", cfg.tr.len(), path)
	}
	if err := emit(*workload, kind, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// emit prints the summary to standard error and the result object as the
// last line of standard output. Every metric of the requested kind is
// reported: a workload that bypasses a layer reports that layer's work as
// zero.
func emit(workload string, kind metricKind, out *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, m := range metricTable {
		if m.kind != kind {
			continue
		}
		v, ok := out.metrics[m.name]
		if !ok && kind == endToEnd {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	for name := range out.metrics {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared as %s", name, kind)
		}
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	failedFrac := float64(out.failed) / float64(out.attempted)
	fmt.Fprintf(os.Stderr, "workload %s: attempted=%d failed=%d failed_frac=%g\n", workload, out.attempted, out.failed, failedFrac)
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printEnvironment records the run's provenance on standard error.
func printEnvironment(workload string, cfg config) {
	fmt.Fprintf(os.Stderr, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, cfg.seed, cfg.budget.Seconds(), cfg.tr != nil)
	fmt.Fprintf(os.Stderr, "env: go=%s cpu=%q nproc=%d GOMAXPROCS=%d workers=%d\n",
		runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers)
}
