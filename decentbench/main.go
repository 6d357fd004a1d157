// Command decentbench is the end-to-end benchmark of the decentsim
// reproduction. It runs one named workload of experiment jobs in a closed
// loop for a fixed time, checks every output it can against the golden
// baselines, and prints one JSON result line:
//
//	decentbench --workload dht --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// telemetry off. With --trace 1 a separate traced run times each layer's
// public functions from this package and reads kernel and transport counts
// from per-job obs collectors; the result then carries the per-layer
// metrics. --workload all runs every workload in this one process.
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line arguments.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	goldenDir string
	workDir   string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("decentbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: dht, ledger, report or all")
	fs.Int64Var(&o.seed, "seed", 1, "benchmark seed (>= 0); per-job seeds are derived from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.goldenDir, "golden", "internal/experiments/testdata", "directory holding the golden/ and golden_scale1/ baselines")
	fs.StringVar(&o.workDir, "work", ".bench_build/work", "scratch directory for generated report trees")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.seed < 0:
		return o, fmt.Errorf("--seed %d must be >= 0", o.seed)
	case !(o.seconds > 0):
		return o, fmt.Errorf("--seconds %g must be positive", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "decentbench:", err)
		}
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	var results []*result
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			fmt.Fprintf(stderr, "decentbench: unknown workload %q (want one of %v or all)\n", name, workloadNames)
			return 2
		}
		res, err := runWorkload(w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "decentbench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		for i, res := range results {
			if err := printResult(stdout, names[i]+" ", res); err != nil {
				fmt.Fprintln(stderr, "decentbench:", err)
				return 1
			}
		}
		final = merge(names, results)
	}
	if err := printResult(stdout, "", final); err != nil {
		fmt.Fprintln(stderr, "decentbench:", err)
		return 1
	}
	return 0
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line. A run error, a panic, a golden
// mismatch or an output that telemetry changed is a failed operation;
// Correct is true only when none failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and builds the metric set of one run.
type tally struct {
	attempted, failed int
	metrics           map[string]metric
}

func (t *tally) ok(n int)   { t.attempted += n }
func (t *tally) fail(n int) { t.attempted += n; t.failed += n }

// add counts the operations of one pass.
func (t *tally) add(out passOut) {
	t.attempted += out.attempted
	t.failed += out.failed
}

func (t *tally) set(name string, v float64) {
	if t.metrics == nil {
		t.metrics = make(map[string]metric)
	}
	unit, ok := unitOf(name)
	if !ok {
		panic("decentbench: metric " + name + " has no unit")
	}
	t.metrics[name] = metric{Value: v, Unit: unit}
}

func (t *tally) result() *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics}
}

// merge folds the results of several workloads into one line whose
// metrics are prefixed with the workload name.
func merge(names []string, results []*result) *result {
	out := &result{Correct: true, Metrics: make(map[string]metric)}
	for i, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for name, m := range res.Metrics {
			out.Metrics[names[i]+"."+name] = m
		}
	}
	return out
}

func printResult(w io.Writer, prefix string, res *result) error {
	enc, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s%s\n", prefix, enc)
	return err
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
