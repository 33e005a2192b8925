// Command cpprperf is the CPPR timer's end-to-end and per-layer
// benchmark. It generates its inputs from a seed, drives the public
// entry points of the timer (tau, sdc, cppr, internal/hier and
// internal/serve) from outside the program, checks every output, and
// prints one JSON result as the last line of standard output.
//
//	cpprperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the workload runs twice, untraced
// and then with spans recorded around every call into a layer; the
// result carries the per-layer metrics and the spans are written to
// .bench_build/cpprperf-trace/. Any output that fails its check makes
// the command exit nonzero. See METRICS.md for what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricDefs are the metric lists of BENCHMARK.json: the end-to-end
// metrics every workload reports with --trace 0 (what "op" is differs
// per workload; see METRICS.md), and the per-layer metrics every
// workload reports with --trace 1, where a layer the workload does not
// exercise reports 0.
type metricDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetricDefs(path string) (metricDefs, error) {
	var defs metricDefs
	b, err := os.ReadFile(path)
	if err != nil {
		return defs, err
	}
	if err := json.Unmarshal(b, &defs); err != nil {
		return defs, fmt.Errorf("%s: %w", path, err)
	}
	return defs, nil
}

// runConfig is what a workload gets from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// workers is nproc: GOMAXPROCS and every timer's
	// cppr.Parallelism.Workers are set to it.
	workers int
	// rec records spans; nil on untraced runs.
	rec *recorder
}

// workload is one named traffic shape.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"signoff_cold", runSignoff},
	{"eco_whatif", runECO},
	{"serve_mixed", runServe},
	{"hier_eco", runHier},
}

// outcome is one workload run's result.
type outcome struct {
	attempted int
	// failed counts operations that errored, were shed or timed out,
	// plus every mismatch.
	failed     int
	mismatches []string
	e2e        map[string]float64
	layer      map[string]float64
	// opMeanS is the mean latency of the workload's op, the basis of
	// trace.overhead_pct.
	opMeanS float64
	// notes are human-readable lines for standard error: sample
	// counts and the workload-specific names of the op metrics.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records an output that failed its check.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	} else if len(o.mismatches) == 20 {
		o.mismatches = append(o.mismatches, "(further mismatches not listed)")
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult assembles the printed result from o: the end-to-end
// metrics, or the per-layer ones when traced. A metric the workload
// did not produce is an error for end-to-end metrics (every workload
// must measure every one) and 0 for per-layer metrics.
func buildResult(defs metricDefs, o *outcome, traced bool) (result, error) {
	res := result{
		Correct:   len(o.mismatches) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	list, vals := defs.EndToEnd, o.e2e
	if traced {
		list, vals = defs.PerLayer, o.layer
	}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok && !traced {
			return res, fmt.Errorf("workload produced no %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload attempted no operation")
	}
	return res, nil
}

// exitCode maps a result to the process exit status: any mismatch
// makes the command fail.
func exitCode(res result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	name := flag.String("workload", "", "workload name (signoff_cold, eco_whatif, serve_mixed, hier_eco)")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "seconds the workload measures for")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace))
}

func run(name string, seed int64, seconds, trace int) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "cpprperf: bad arguments (workload %q, seconds %d, trace %d)\n", name, seconds, trace)
		return 2
	}
	defs, err := loadMetricDefs("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpprperf: %v (run from the repository root)\n", err)
		return 2
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	fmt.Fprintln(os.Stderr, hostLine())
	ctx := context.Background()
	cfg := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, workers: workers}

	var o *outcome
	if trace == 0 {
		o, err = w.run(ctx, cfg)
	} else {
		o, err = runTraced(ctx, w, cfg, name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpprperf: %s: %v\n", name, err)
		return 2
	}
	res, err := buildResult(defs, o, trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpprperf: %s: %v\n", name, err)
		return 2
	}
	printSummary(name, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpprperf: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	return exitCode(res)
}

// runTraced runs w untraced and then traced for half the seconds each,
// and reports the traced run's per-layer metrics plus the tracing
// overhead on the workload's op latency. Both runs' outputs are
// checked; a mismatch in either fails the command.
func runTraced(ctx context.Context, w *workload, cfg runConfig, name string) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	if half.seconds < time.Second {
		half.seconds = time.Second
	}
	plain, err := w.run(ctx, half)
	if err != nil {
		return nil, err
	}
	half.rec = newRecorder()
	o, err := w.run(ctx, half)
	if err != nil {
		return nil, err
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.mismatches = append(plain.mismatches, o.mismatches...)
	if plain.opMeanS > 0 {
		o.layer["trace.overhead_pct"] = 100 * (o.opMeanS - plain.opMeanS) / plain.opMeanS
	}
	path := filepath.Join(".bench_build", "cpprperf-trace", fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := half.rec.writeFile(path, hostLine()); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	return o, nil
}

// hostLine states where the numbers come from.
func hostLine() string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s rev=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// printSummary writes a readable table of the result to stderr.
func printSummary(name string, o *outcome, res result) {
	fmt.Fprintf(os.Stderr, "workload %s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, m := range o.mismatches {
		fmt.Fprintf(os.Stderr, "  MISMATCH %s\n", m)
	}
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
