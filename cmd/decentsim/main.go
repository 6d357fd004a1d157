// Command decentsim runs the paper-reproduction experiments, singly or as
// parallel multi-seed sweeps.
//
// Usage:
//
//	decentsim list                     # show all experiments
//	decentsim run E06 E13              # run specific experiments
//	decentsim run all                  # run everything (errors collected, reported at exit)
//	decentsim -seed 7 -scale 0.5 run E03
//	decentsim run -csv E06             # emit tables as CSV
//	decentsim run -json -parallel 4 all
//	decentsim sweep -parallel 8 -json -seeds 1..10 E03 E06
//	decentsim sweep -seeds 1..5 -set e03.lookups=100,200 E03
//	decentsim sweep -seeds 1..3 -set e06.shards=16,64,256 -set e06.crossshard=0.1,0.5 E06
//	decentsim rep -n 10 E06            # replicate over seeds 1..n, aggregate
//	decentsim rep -seeds 1..100 -drift SOAK_drift.json E01 E11 E16
//	decentsim report -seeds 1..3 all   # render the reproduction report tree
//	decentsim report -out docs/report -parallel 8 E06 E08
//	decentsim report -sensitivity all  # + per-knob sensitivity pages
//	decentsim report -sensitivity -grid-points 3 -scale 0.25 -seeds 1..2 all
//	decentsim report -resources all    # + per-experiment Resources appendix
//	decentsim report -html all         # + self-contained HTML siblings (index.html, ...)
//	decentsim report -diff old-manifest.json -seeds 1..3 all   # exit nonzero on verdict flips
//	decentsim report -diff SOAK_baseline.json -against SOAK_drift.json  # trend gate, no runs
//	decentsim serve -addr :8080 -seeds 1..3 -scale 0.25 E01 E11  # HTML report over HTTP
//	decentsim trace E06                # run once, write trace.json (chrome://tracing)
//	decentsim trace -seed 3 -trace-limit 50000 -out e13.trace.json E13
//	decentsim rep -n 5 -profile profiles E06   # per-run CPU/heap pprof files
//
// Every experiment E01–E19 registers sweepable knobs; -set accepts any
// name listed in DESIGN.md's knob table (unknown names are rejected with
// the full list).
//
// Flags may appear before or after the subcommand. sweep and rep emit an
// aggregate report (per-metric mean/stddev/95%-CI and a majority-vote
// shape verdict per check) that is byte-identical at any -parallel value.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	decent "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "decentsim:", err)
		os.Exit(1)
	}
}

// options holds every flag; the same set is registered globally and per
// subcommand so flags work in either position.
type options struct {
	seed     int64
	scale    float64
	csv      bool
	json     bool
	parallel int
	seeds    string
	scales   string
	reps     int
	out      string
	set      knobFlags

	sensitivity bool
	gridPoints  int
	drift       string

	resources  bool
	profile    string
	traceLimit int

	html    bool
	diff    string
	against string
	addr    string
}

// knobFlags collects repeatable -set name=v1,v2 knob specifications.
type knobFlags struct {
	params map[string][]float64
}

func (k *knobFlags) String() string { return "" }

func (k *knobFlags) Set(spec string) error {
	name, vals, err := decent.ParseParam(spec)
	if err != nil {
		return err
	}
	known := decent.Knobs()
	if _, ok := known[name]; !ok {
		return fmt.Errorf("unknown knob %q (known: %s)", name,
			strings.Join(slices.Sorted(maps.Keys(known)), ", "))
	}
	if k.params == nil {
		k.params = make(map[string][]float64)
	}
	if _, dup := k.params[name]; dup {
		return fmt.Errorf("knob %s given twice; list all values in one -set %s=v1,v2", name, name)
	}
	k.params[name] = vals
	return nil
}

func (o *options) register(fs *flag.FlagSet) {
	fs.Int64Var(&o.seed, "seed", o.seed, "master random seed for single runs (>= 1)")
	fs.Float64Var(&o.scale, "scale", o.scale, "workload scale factor (smaller = faster)")
	fs.BoolVar(&o.csv, "csv", o.csv, "emit CSV instead of aligned text")
	fs.BoolVar(&o.json, "json", o.json, "emit JSON instead of text")
	fs.IntVar(&o.parallel, "parallel", o.parallel, "worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&o.seeds, "seeds", o.seeds, "sweep/rep seed list, e.g. 1..10 or 1,3,9 (default: sweep 1..5, rep 1..n)")
	fs.StringVar(&o.scales, "scales", o.scales, "sweep scale list, e.g. 0.25,0.5,1 (default: -scale)")
	fs.IntVar(&o.reps, "n", o.reps, "rep: replication count, seeds 1..n (conflicts with -seeds)")
	fs.StringVar(&o.out, "out", o.out, "report: output directory for the generated report tree")
	fs.Var(&o.set, "set", "sweep knob values, e.g. -set e03.lookups=100,200 (repeatable; every experiment has knobs — see DESIGN.md)")
	fs.BoolVar(&o.sensitivity, "sensitivity", o.sensitivity, "report: sweep every registered knob over its default grid and render per-knob sensitivity pages")
	fs.IntVar(&o.gridPoints, "grid-points", o.gridPoints, "report: swept values per knob grid (default 5; needs -sensitivity)")
	fs.StringVar(&o.drift, "drift", o.drift, "rep: also write per-scenario headline-metric drift bounds (mean/stddev/95% CI) as JSON to this file")
	fs.BoolVar(&o.resources, "resources", o.resources, "report: attach run telemetry and render a per-experiment Resources appendix plus resources/host.json")
	fs.StringVar(&o.profile, "profile", o.profile, "sweep/rep/report: write per-run CPU and heap pprof profiles into this directory")
	fs.IntVar(&o.traceLimit, "trace-limit", o.traceLimit, "trace: event buffer limit (default 100000; overflow is counted, not stored)")
	fs.BoolVar(&o.html, "html", o.html, "report: also render every markdown page as a self-contained HTML sibling (index.html, experiments/<ID>.html)")
	fs.StringVar(&o.diff, "diff", o.diff, "report: compare verdicts against this old manifest.json (or soak drift JSON); exits nonzero on verdict flips")
	fs.StringVar(&o.against, "against", o.against, "report -diff: compare the -diff file against this file instead of generating a report")
	fs.StringVar(&o.addr, "addr", o.addr, "serve: HTTP listen address (default :8080)")
}

// usage is the command summary printed when the subcommand line itself is
// wrong (missing or unknown command); flag errors print the flag set's
// own usage instead.
const usage = `usage: decentsim [flags] <command> [flags] [ids]

commands:
  list                 show all experiments
  run <ids|all>        run experiments once
  sweep <ids|all>      multi-seed / multi-scale / multi-knob sweeps
  rep <ids|all>        replicate over seeds and aggregate
  report <ids|all>     render the reproduction report tree (-html, -diff)
  serve [ids|all]      generate the HTML report, then serve it over HTTP (-addr)
  trace <id>           run once, write a Chrome trace

run 'decentsim <command> -h' for that command's flags`

func run(args []string, out io.Writer) error {
	opts := options{seed: 1, scale: 1, reps: 10, out: "report"}
	global := flag.NewFlagSet("decentsim", flag.ContinueOnError)
	opts.register(global)
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("expected a command\n%s", usage)
	}
	cmd, rest := rest[0], rest[1:]
	// Subcommand flags: re-register over the already-parsed values so
	// "decentsim sweep -parallel 8 E03" works like "-parallel 8 sweep E03".
	sub := flag.NewFlagSet("decentsim "+cmd, flag.ContinueOnError)
	opts.register(sub)
	if err := sub.Parse(rest); err != nil {
		return err
	}
	ids := sub.Args()

	// Flags that don't apply to the chosen command are rejected rather
	// than silently ignored (e.g. `run -seeds 1..10` is not a sweep).
	provided := make(map[string]bool)
	global.Visit(func(f *flag.Flag) { provided[f.Name] = true })
	sub.Visit(func(f *flag.Flag) { provided[f.Name] = true })
	inapplicable := map[string]map[string]string{
		"run": {
			"seeds":       "use the sweep or rep subcommand for multi-seed runs",
			"scales":      "use the sweep subcommand to cross scales",
			"n":           "use the rep subcommand for replications",
			"out":         "only the report and trace subcommands write output files",
			"sensitivity": "only the report subcommand renders sensitivity pages",
			"grid-points": "only the report subcommand sweeps knob grids",
			"drift":       "only the rep subcommand writes drift bounds",
			"resources":   "only the report subcommand renders the resources appendix",
			"profile":     "only the sweep, rep, and report subcommands run on the profiled harness",
			"trace-limit": "only the trace subcommand buffers an event trace",
			"html":        "only the report and serve subcommands render HTML pages",
			"diff":        "only the report subcommand compares manifests",
			"against":     "only the report subcommand compares manifests",
			"addr":        "only the serve subcommand listens on an address",
		},
		"sweep": {
			"seed":        "use -seeds to choose sweep seeds",
			"n":           "use -seeds, or the rep subcommand",
			"out":         "only the report and trace subcommands write output files",
			"sensitivity": "only the report subcommand renders sensitivity pages",
			"grid-points": "only the report subcommand sweeps knob grids",
			"drift":       "only the rep subcommand writes drift bounds",
			"resources":   "only the report subcommand renders the resources appendix",
			"trace-limit": "only the trace subcommand buffers an event trace",
			"html":        "only the report and serve subcommands render HTML pages",
			"diff":        "only the report subcommand compares manifests",
			"against":     "only the report subcommand compares manifests",
			"addr":        "only the serve subcommand listens on an address",
		},
		"rep": {
			"seed":        "use -seeds or -n to choose replication seeds",
			"scales":      "rep replicates one scenario; use sweep to cross scales",
			"out":         "only the report and trace subcommands write output files",
			"sensitivity": "only the report subcommand renders sensitivity pages",
			"grid-points": "only the report subcommand sweeps knob grids",
			"resources":   "only the report subcommand renders the resources appendix",
			"trace-limit": "only the trace subcommand buffers an event trace",
			"html":        "only the report and serve subcommands render HTML pages",
			"diff":        "only the report subcommand compares manifests",
			"against":     "only the report subcommand compares manifests",
			"addr":        "only the serve subcommand listens on an address",
		},
		"report": {
			"seed":        "use -seeds to choose the replication seeds",
			"n":           "use -seeds to choose the replication seeds",
			"scales":      "the report runs one scale; use -scale",
			"csv":         "the report is a markdown/SVG/JSON directory tree",
			"json":        "the report is a markdown/SVG/JSON directory tree",
			"set":         "the report documents baseline runs; use -sensitivity for knob grids, or sweep",
			"drift":       "only the rep subcommand writes drift bounds",
			"trace-limit": "only the trace subcommand buffers an event trace",
			"addr":        "only the serve subcommand listens on an address",
		},
		"serve": {
			"seed":        "serve scenarios replicate over -seeds",
			"scales":      "the served default scenario runs one scale; use -scale",
			"n":           "use -seeds to choose the replication seeds",
			"csv":         "serve renders the HTML/markdown report tree",
			"json":        "serve renders the HTML/markdown report tree",
			"out":         "serve streams artifacts from memory; use the report subcommand to write a tree",
			"drift":       "only the rep subcommand writes drift bounds",
			"profile":     "only the sweep, rep, and report subcommands run on the profiled harness",
			"trace-limit": "only the trace subcommand buffers an event trace",
			"diff":        "only the report subcommand compares manifests",
			"against":     "only the report subcommand compares manifests",
		},
		"trace": {
			"seeds":       "trace records one run; use -seed",
			"scales":      "trace records one run; use -scale",
			"n":           "trace records one run",
			"parallel":    "trace records one run in-process",
			"csv":         "trace writes Chrome trace-event JSON",
			"json":        "trace writes Chrome trace-event JSON",
			"sensitivity": "only the report subcommand renders sensitivity pages",
			"grid-points": "only the report subcommand sweeps knob grids",
			"drift":       "only the rep subcommand writes drift bounds",
			"resources":   "only the report subcommand renders the resources appendix",
			"profile":     "only the sweep, rep, and report subcommands run on the profiled harness",
			"html":        "only the report and serve subcommands render HTML pages",
			"diff":        "only the report subcommand compares manifests",
			"against":     "only the report subcommand compares manifests",
			"addr":        "only the serve subcommand listens on an address",
		},
	}
	if cmd == "list" && len(provided) > 0 {
		return errors.New("list: takes no flags")
	}
	for _, name := range slices.Sorted(maps.Keys(inapplicable[cmd])) {
		if provided[name] {
			return fmt.Errorf("%s: -%s does not apply; %s", cmd, name, inapplicable[cmd][name])
		}
	}
	if opts.json && opts.csv {
		return fmt.Errorf("%s: choose one of -json or -csv", cmd)
	}
	if cmd == "rep" && provided["n"] && provided["seeds"] {
		return errors.New("rep: -n and -seeds conflict; choose one")
	}
	if provided["scale"] && provided["scales"] {
		return fmt.Errorf("%s: -scale and -scales conflict; choose one", cmd)
	}
	if provided["grid-points"] && !opts.sensitivity {
		return errors.New("report: -grid-points needs -sensitivity")
	}
	if provided["against"] && !provided["diff"] {
		return errors.New("report: -against needs -diff")
	}
	if provided["diff"] && (provided["out"] || opts.html || opts.sensitivity || opts.resources) {
		return errors.New("report: -diff only compares verdicts; it writes no tree (drop -out/-html/-sensitivity/-resources)")
	}
	if cmd == "serve" && !provided["addr"] {
		opts.addr = ":8080"
	}
	if provided["grid-points"] && opts.gridPoints < 1 {
		return fmt.Errorf("report: -grid-points must be >= 1 (got %d)", opts.gridPoints)
	}
	if (cmd == "run" || cmd == "trace") && opts.seed < 1 {
		return fmt.Errorf("%s: -seed must be >= 1 (got %d)", cmd, opts.seed)
	}
	if provided["trace-limit"] && opts.traceLimit < 1 {
		return fmt.Errorf("trace: -trace-limit must be >= 1 (got %d)", opts.traceLimit)
	}
	// The two file-writing commands share -out but not a sensible default:
	// report writes a tree, trace a single JSON file.
	if cmd == "trace" && !provided["out"] {
		opts.out = "trace.json"
	}
	// core.Config would silently remap scale <= 0 to 1 while reports
	// label the group with the raw value — reject up front instead.
	// !(scale > 0) also catches NaN, which compares false to everything.
	if cmd != "list" && (!(opts.scale > 0) || math.IsInf(opts.scale, 0)) {
		return fmt.Errorf("%s: -scale must be a finite number > 0 (got %g)", cmd, opts.scale)
	}

	reg, err := decent.Experiments()
	if err != nil {
		return err
	}
	switch cmd {
	case "list":
		if len(ids) > 0 {
			return fmt.Errorf("list: takes no arguments (got %s)", strings.Join(ids, " "))
		}
		for _, e := range reg.All() {
			fmt.Fprintf(out, "%-5s %s\n      %s\n", e.ID(), e.Title(), e.Claim())
		}
		return nil
	case "run":
		return runCmd(out, reg, &opts, ids)
	case "sweep":
		return sweepCmd(out, reg, &opts, ids, false)
	case "rep":
		return sweepCmd(out, reg, &opts, ids, true)
	case "report":
		return reportCmd(out, reg, &opts, ids)
	case "serve":
		return serveCmd(out, reg, &opts, ids)
	case "trace":
		return traceCmd(out, reg, &opts, ids)
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

// expandIDs resolves "all" and validates every id against the registry,
// rejecting duplicates (a repeated id would be aggregated as extra
// replications of the same scenario).
func expandIDs(reg *decent.Registry, ids []string) ([]string, error) {
	if len(ids) == 0 {
		return nil, errors.New("requires experiment ids or 'all'")
	}
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		ids = ids[:0]
		for _, e := range reg.All() {
			ids = append(ids, e.ID())
		}
		return ids, nil
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, err := reg.Get(id); err != nil {
			return nil, err
		}
		up := strings.ToUpper(id)
		if seen[up] {
			return nil, fmt.Errorf("duplicate experiment id %s", up)
		}
		seen[up] = true
	}
	return ids, nil
}

// runCmd executes each experiment once. Errors do not abort the batch:
// every experiment runs, then all errors are reported together.
func runCmd(out io.Writer, reg *decent.Registry, opts *options, ids []string) error {
	ids, err := expandIDs(reg, ids)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if err := rejectMultiValueKnobs("run", opts.set.params); err != nil {
		return err
	}
	// Expanding through Sweep reuses its knob-ownership rule: a knob
	// prefixed for one selected experiment is not attached to the others.
	grid := decent.Sweep{
		Experiments: ids,
		Seeds:       []int64{opts.seed},
		Scales:      []float64{opts.scale},
		Params:      opts.set.params,
	}
	// Knob ownership is validated by the same rule sweeps use.
	if err := grid.Validate(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	jobs := grid.Jobs()
	// Text and CSV modes stream each result as soon as every earlier job
	// has finished, so long batches show progress; output order stays the
	// job order regardless of which worker finishes first. JSON must be a
	// single document and is emitted at the end.
	printResult := func(jr decent.JobResult) {
		if jr.Err != nil {
			return
		}
		if opts.csv {
			for _, t := range jr.Result.Tables {
				fmt.Fprintln(out, t.CSV())
			}
		} else {
			fmt.Fprintln(out, jr.Result)
		}
	}
	next := 0
	pending := make(map[int]decent.JobResult, len(jobs))
	runner := decent.Runner{Registry: reg, Workers: opts.parallel}
	if !opts.json {
		runner.OnResult = func(i int, jr decent.JobResult) {
			pending[i] = jr
			for {
				jr, ok := pending[next]
				if !ok {
					break
				}
				printResult(jr)
				delete(pending, next)
				next++
			}
		}
	}
	results := runner.Run(jobs)
	var runErrs []string
	failures := 0
	// runDoc mirrors the sweep JSON contract: errored runs stay in-band
	// rather than only on stderr. Slices are non-nil so empty sections
	// encode as [] rather than null.
	type runError struct {
		Experiment string `json:"experiment"`
		Error      string `json:"error"`
	}
	runDoc := struct {
		Results []*decent.Result `json:"results"`
		Errors  []runError       `json:"errors"`
	}{Results: []*decent.Result{}, Errors: []runError{}}
	for _, jr := range results {
		if jr.Err != nil {
			// Canonical upper-case ids, as Aggregate and the registry emit.
			id := strings.ToUpper(jr.Job.ExperimentID)
			runErrs = append(runErrs, fmt.Sprintf("%s: %v", id, jr.Err))
			runDoc.Errors = append(runDoc.Errors, runError{
				Experiment: id,
				Error:      jr.Err.Error(),
			})
			continue
		}
		if opts.json {
			runDoc.Results = append(runDoc.Results, jr.Result)
		}
		if !jr.Result.Reproduced() {
			failures++
		}
	}
	if opts.json {
		enc, err := json.MarshalIndent(runDoc, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(enc))
	}
	if len(runErrs) > 0 {
		return fmt.Errorf("%d experiment(s) errored:\n  %s", len(runErrs), strings.Join(runErrs, "\n  "))
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape checks", failures)
	}
	return nil
}

// rejectMultiValueKnobs enforces that single-scenario commands (run, rep)
// take one value per knob: a multi-value knob is a sweep request, and
// silently taking the first value would drop grid points.
func rejectMultiValueKnobs(cmd string, params map[string][]float64) error {
	for _, name := range slices.Sorted(maps.Keys(params)) {
		if vals := params[name]; len(vals) > 1 {
			return fmt.Errorf("%s: knob %s has %d values; use the sweep subcommand to cross knob values", cmd, name, len(vals))
		}
	}
	return nil
}

// reportCmd generates the reproduction report: every selected experiment
// replicated across the seed set on the worker pool, rendered as a
// deterministic document tree (REPORT.md traceability matrix, one page
// per experiment, SVG figures, hash manifest) under -out. Shape-check
// outcomes live in the report; only run errors fail the command.
func reportCmd(out io.Writer, reg *decent.Registry, opts *options, ids []string) error {
	if opts.diff != "" {
		return diffCmd(out, reg, opts, ids)
	}
	ids, err := expandIDs(reg, ids)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	ropts := decent.ReportOptions{
		IDs:         ids,
		Scale:       opts.scale,
		Workers:     opts.parallel,
		Sensitivity: opts.sensitivity,
		GridPoints:  opts.gridPoints,
		Resources:   opts.resources,
		ProfileDir:  opts.profile,
		HTML:        opts.html,
	}
	if opts.profile != "" {
		if err := os.MkdirAll(opts.profile, 0o755); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if opts.seeds != "" {
		if ropts.Seeds, err = decent.ParseSeeds(opts.seeds); err != nil {
			return err
		}
	}
	tree, err := decent.GenerateReport(ropts)
	if err != nil {
		return err
	}
	if err := tree.WriteDir(opts.out); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	fmt.Fprintf(out, "report: wrote %d files to %s (%d/%d scenarios reproduced)\n",
		len(tree.Files), opts.out, tree.Reproduced, tree.Groups)
	if tree.RunErrors > 0 {
		return fmt.Errorf("report: %d run(s) errored (see the generated pages)", tree.RunErrors)
	}
	return nil
}

// diffCmd is `report -diff`: it compares an old manifest.json (or soak
// drift JSON) against either a second file (-against, no experiments run)
// or a freshly generated report's manifest, prints one line per verdict
// flip / metric drift / scenario change, and fails exactly when a verdict
// flipped (manifests) or a drift bound was breached (drift documents) —
// the exit code is the trend gate.
func diffCmd(out io.Writer, reg *decent.Registry, opts *options, ids []string) error {
	if opts.against != "" && len(ids) > 0 {
		return fmt.Errorf("report: -diff with -against compares two files; it takes no experiment ids (got %s)", strings.Join(ids, " "))
	}
	oldData, err := os.ReadFile(opts.diff)
	if err != nil {
		return fmt.Errorf("report: -diff: %w", err)
	}
	var newData []byte
	if opts.against != "" {
		if newData, err = os.ReadFile(opts.against); err != nil {
			return fmt.Errorf("report: -against: %w", err)
		}
	} else {
		ids, err := expandIDs(reg, ids)
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		ropts := decent.ReportOptions{
			IDs:     ids,
			Scale:   opts.scale,
			Workers: opts.parallel,
		}
		if opts.seeds != "" {
			if ropts.Seeds, err = decent.ParseSeeds(opts.seeds); err != nil {
				return err
			}
		}
		tree, err := decent.GenerateReport(ropts)
		if err != nil {
			return err
		}
		newData = tree.Lookup("manifest.json")
	}
	d, err := decent.DiffDocs(oldData, newData)
	if err != nil {
		return err
	}
	fmt.Fprint(out, d.Render())
	if d.Failing() {
		if d.Kind == "drift" {
			return fmt.Errorf("report: %d scenario(s) breached the drift envelope", len(d.Breaches))
		}
		return fmt.Errorf("report: %d claim verdict(s) flipped", len(d.Flips))
	}
	return nil
}

// serveCmd generates the report tree for the selected scenario (default:
// every experiment, seeds 1..3, scale 1) with HTML on, then serves it over
// HTTP. Generation finishes before the listener opens, so a scenario that
// cannot be generated fails the command without binding the address. It
// blocks until interrupted; SIGINT/SIGTERM drain in-flight requests before
// exit.
func serveCmd(out io.Writer, reg *decent.Registry, opts *options, ids []string) error {
	if len(ids) > 0 {
		var err error
		if ids, err = expandIDs(reg, ids); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if err := rejectMultiValueKnobs("serve", opts.set.params); err != nil {
		return err
	}
	base := decent.ReportOptions{
		IDs:         ids,
		Scale:       opts.scale,
		Workers:     opts.parallel,
		Sensitivity: opts.sensitivity,
		GridPoints:  opts.gridPoints,
		Resources:   opts.resources,
		HTML:        true,
	}
	var err error
	if opts.seeds != "" {
		if base.Seeds, err = decent.ParseSeeds(opts.seeds); err != nil {
			return err
		}
	}
	for name, vals := range opts.set.params {
		if base.Params == nil {
			base.Params = make(map[string]float64, len(opts.set.params))
		}
		base.Params[name] = vals[0]
	}
	tree, err := decent.GenerateReport(base)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Announce the resolved address (not the flag) so -addr :0 is usable.
	fmt.Fprintf(out, "serve: listening on http://%s\n", ln.Addr())
	httpSrv := &http.Server{Handler: decent.ReportHandler(tree)}
	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		httpSrv.Shutdown(context.Background())
		close(done)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	<-done
	fmt.Fprintln(out, "serve: shut down")
	return nil
}

// writeDrift exports per-scenario drift bounds: the headline metric
// (first varying, else first) of every aggregate group with its
// cross-seed mean, stddev and 95% CI, plus one host-resource row per run
// (wall time and live heap — machine-dependent by nature, tracked so the
// nightly soak surfaces runtime and memory drift alongside metric
// drift). This is the compact artifact the nightly soak workflow
// publishes, so drift across large seed sets accumulates as a trajectory
// instead of a full report tree.
func writeDrift(path string, report *decent.Report, seeds []int64, results []decent.JobResult) error {
	type driftMetric struct {
		Experiment   string  `json:"experiment"`
		Scale        float64 `json:"scale"`
		Params       string  `json:"params,omitempty"`
		Replications int     `json:"replications"`
		Metric       string  `json:"metric"`
		N            int     `json:"n"`
		Mean         float64 `json:"mean"`
		Std          float64 `json:"stddev"`
		CI95         float64 `json:"ci95"`
		Min          float64 `json:"min"`
		Max          float64 `json:"max"`
	}
	type driftRun struct {
		Experiment    string  `json:"experiment"`
		Seed          int64   `json:"seed"`
		Scale         float64 `json:"scale"`
		WallNanos     int64   `json:"wall_ns"`
		HeapLiveBytes uint64  `json:"heap_live_bytes"`
	}
	doc := struct {
		Seeds int           `json:"seeds"`
		Drift []driftMetric `json:"drift"`
		Runs  []driftRun    `json:"runs"`
	}{Seeds: len(seeds), Drift: []driftMetric{}, Runs: []driftRun{}}
	for _, jr := range results {
		if jr.Err != nil {
			continue
		}
		run := driftRun{
			Experiment: strings.ToUpper(jr.Job.ExperimentID),
			Seed:       jr.Job.Config.Seed,
			Scale:      jr.Job.Config.Scale,
			WallNanos:  int64(jr.Elapsed),
		}
		if jr.Host != nil {
			run.WallNanos = jr.Host.WallNanos
			run.HeapLiveBytes = jr.Host.HeapLiveBytes
		}
		doc.Runs = append(doc.Runs, run)
	}
	for _, g := range report.Groups {
		m, ok := g.Headline()
		if !ok {
			continue
		}
		doc.Drift = append(doc.Drift, driftMetric{
			Experiment:   g.ExperimentID,
			Scale:        g.Scale,
			Params:       g.Params,
			Replications: g.Replications,
			Metric:       m.Name,
			N:            m.N,
			Mean:         m.Mean,
			Std:          m.Std,
			CI95:         m.CI95,
			Min:          m.Min,
			Max:          m.Max,
		})
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// sweepCmd runs a multi-seed sweep (or, for rep, a pure replication) and
// emits the aggregate report. Shape-check outcomes live in the report;
// only run errors fail the command.
func sweepCmd(out io.Writer, reg *decent.Registry, opts *options, ids []string, rep bool) error {
	var err error
	name := "sweep"
	if rep {
		name = "rep"
	}
	ids, err = expandIDs(reg, ids)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	// Knob-ownership validation happens in decent.RunSweep (Sweep.Validate).
	// rep replicates one scenario: a multi-value knob is a sweep request.
	if rep {
		if err := rejectMultiValueKnobs("rep", opts.set.params); err != nil {
			return err
		}
	}
	sweep := decent.Sweep{Experiments: ids, Params: opts.set.params}
	switch {
	case opts.seeds != "":
		if sweep.Seeds, err = decent.ParseSeeds(opts.seeds); err != nil {
			return err
		}
	case rep:
		if opts.reps < 1 {
			return fmt.Errorf("rep: -n must be >= 1 (got %d)", opts.reps)
		}
		if opts.reps > decent.MaxSeeds {
			return fmt.Errorf("rep: -n %d exceeds the %d-seed cap", opts.reps, decent.MaxSeeds)
		}
		for s := int64(1); s <= int64(opts.reps); s++ {
			sweep.Seeds = append(sweep.Seeds, s)
		}
	default:
		sweep.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if opts.scales != "" {
		if sweep.Scales, err = decent.ParseScales(opts.scales); err != nil {
			return err
		}
	} else {
		sweep.Scales = []float64{opts.scale}
	}
	if err := sweep.Validate(); err != nil {
		return err
	}
	if opts.profile != "" {
		if err := os.MkdirAll(opts.profile, 0o755); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	// Built directly (rather than through RunSweep) so the runner can
	// carry the profiling and host-sampling hooks; aggregation is the
	// same, so the report bytes are unchanged.
	runner := decent.Runner{
		Registry:   reg,
		Workers:    opts.parallel,
		ProfileDir: opts.profile,
		SampleHost: rep && opts.drift != "",
	}
	results := runner.Run(sweep.Jobs())
	report := decent.Aggregate(results)
	if rep && opts.drift != "" {
		if err := writeDrift(opts.drift, report, sweep.Seeds, results); err != nil {
			return fmt.Errorf("rep: %w", err)
		}
	}
	switch {
	case opts.json:
		enc, err := report.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(enc))
	case opts.csv:
		fmt.Fprint(out, report.CSV())
	default:
		fmt.Fprint(out, report)
	}
	errs := 0
	for _, g := range report.Groups {
		errs += len(g.Errors)
	}
	if errs > 0 {
		return fmt.Errorf("%s: %d run(s) errored (see report)", name, errs)
	}
	return nil
}

// traceCmd runs one experiment in-process with a telemetry collector and
// event trace attached, writes the trace in Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto), and prints a telemetry
// summary. Single-run by construction: a trace interleaving several runs
// would be unreadable and the collector is per-run state.
func traceCmd(out io.Writer, reg *decent.Registry, opts *options, ids []string) error {
	ids, err := expandIDs(reg, ids)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if len(ids) != 1 {
		return fmt.Errorf("trace: takes exactly one experiment id (got %d)", len(ids))
	}
	if err := rejectMultiValueKnobs("trace", opts.set.params); err != nil {
		return err
	}
	// Reuse the sweep grid so knob ownership and bounds are validated by
	// the same rule every other command uses.
	grid := decent.Sweep{
		Experiments: ids,
		Seeds:       []int64{opts.seed},
		Scales:      []float64{opts.scale},
		Params:      opts.set.params,
	}
	if err := grid.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	jobs := grid.Jobs()
	limit := opts.traceLimit
	if limit <= 0 {
		limit = decent.DefaultTraceLimit
	}
	col := decent.NewCollector(decent.WithTrace(limit))
	cfg := jobs[0].Config
	cfg.Obs = col
	res, err := reg.Run(jobs[0].ExperimentID, cfg)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(opts.out)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := col.Trace().WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	snap := col.Snapshot()
	fmt.Fprintf(out, "trace: wrote %s (%d events, %d dropped)\n", opts.out, snap.TraceEvents, snap.TraceDropped)
	fmt.Fprintf(out, "kernel: %d events fired, peak %d pending, virtual time %s\n",
		snap.Sim.Fired, snap.Sim.MaxPending, time.Duration(snap.Sim.VirtualNano))
	for _, c := range snap.Counters {
		fmt.Fprintf(out, "counter %s = %d\n", c.Name, c.Total)
	}
	for _, h := range snap.Hists {
		fmt.Fprintf(out, "histogram %s: n=%d p50=%s p99=%s\n",
			h.Name, h.Count, time.Duration(h.P50), time.Duration(h.P99))
	}
	if !res.Reproduced() {
		fmt.Fprintf(out, "note: %s failed its shape checks on this run\n", res.ID)
	}
	return nil
}
