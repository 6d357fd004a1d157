package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
)

// job is one experiment configuration a workload runs on every pass.
type job struct {
	// key names the job in the experiment.<key>.* per-layer metrics.
	key    string
	id     string
	scale  float64
	params map[string]float64
}

func atScale025(id string) job { return job{key: id + ".scale025", id: id, scale: 0.25} }
func atScale1(id string) job   { return job{key: id + ".scale1", id: id, scale: 1} }

// goldenDir names the baseline directory this job's seed-1 output must
// match byte for byte, or "" when no baseline covers it (a knob is set).
func (j job) goldenDir() string {
	if len(j.params) > 0 {
		return ""
	}
	switch j.scale {
	case 0.25:
		return "golden"
	case 1:
		return "golden_scale1"
	}
	return ""
}

func (j job) harnessJob(seed int64) harness.Job {
	return harness.Job{ExperimentID: j.id, Config: core.Config{Seed: seed, Scale: j.scale, Params: j.params}}
}

// workload is one named set of jobs run per pass.
type workload struct {
	name string
	jobs []job
	// workers is the harness pool size.
	workers int
	// viaReport runs each pass as the user's report command:
	// report.Generate with HTML on and the tree written to disk.
	viaReport bool
	// fixedPasses always run, whatever the time budget. Their outputs
	// alone feed checks_pass_frac and the printed digest, so both depend
	// only on --seed and the code, never on how fast the host is.
	fixedPasses int
}

var (
	// dht: Kademlia lookups, sybils and churn, where the overlay sorts
	// dominate, plus E03 at the 10^4-node working set.
	dhtWorkload = workload{
		name: "dht",
		jobs: []job{
			atScale025("E03"), atScale025("E04"), atScale025("E15"),
			{key: "E03.n10k", id: "E03", scale: 1, params: map[string]float64{"e03.nodes": 10000}},
		},
		workers:     1,
		fixedPasses: 8,
	}
	// ledger: consensus, PoW and payment channels, none of which uses an
	// overlay; the kernel event loop, offchain routing and allocation
	// dominate.
	ledgerWorkload = workload{
		name: "ledger",
		jobs: []job{
			atScale1("E06"), atScale1("E08"), atScale1("E13"),
			atScale1("E16"), atScale1("E18"), atScale1("E19"),
		},
		workers:     1,
		fixedPasses: 6,
	}
	// report: every experiment through report.Generate on two harness
	// workers, the only workload with concurrent jobs and file output.
	reportWorkload = workload{
		name:        "report",
		jobs:        allAtScale025(),
		workers:     2,
		viaReport:   true,
		fixedPasses: 4,
	}

	workloads     = map[string]workload{"dht": dhtWorkload, "ledger": ledgerWorkload, "report": reportWorkload}
	workloadNames = []string{"dht", "ledger", "report"}
)

func allAtScale025() []job {
	var jobs []job
	for i := 1; i <= 19; i++ {
		jobs = append(jobs, atScale025(fmt.Sprintf("E%02d", i)))
	}
	return jobs
}

// passSeed derives the job seed of pass p from the benchmark seed. Seeds
// are arithmetic, not drawn from an RNG, and always >= 1 (the harness
// rejects seed 0). With --seed 0 the first pass runs seed 1, so its
// outputs are also compared with the golden baselines in-band.
func passSeed(seed int64, p int) int64 { return 1 + seed*maxPasses + int64(p) }

// maxPasses bounds the passes of one run, so the seed ranges of two
// benchmark seeds never overlap.
const maxPasses = 1000

// guarded wraps an experiment so a panic becomes a run error the
// benchmark counts as a failed operation instead of a crashed process.
type guarded struct{ core.Experiment }

func (g guarded) Section() string { return core.SectionOf(g.Experiment) }

func (g guarded) Run(cfg core.Config) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%s panicked: %v", g.ID(), p)
		}
	}()
	return g.Experiment.Run(cfg)
}

// env is what set-up builds once before the first timed job.
type env struct {
	reg    *core.Registry
	golden map[string][]byte // "<dir>/<ID>" -> expected Result.JSON bytes
}

// setup builds the guarded registry, resolves the workload's jobs and
// loads the golden baselines their seed-1 outputs are compared with.
func setup(w workload, goldenRoot string) (*env, error) {
	base, err := experiments.Registry()
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var exps []core.Experiment
	for _, e := range base.All() {
		exps = append(exps, guarded{e})
	}
	reg, err := core.NewRegistry(exps...)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	ev := &env{reg: reg, golden: make(map[string][]byte)}
	for _, j := range w.jobs {
		if _, err := reg.Get(j.id); err != nil {
			return nil, err
		}
		dir := j.goldenDir()
		if dir == "" {
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenRoot, dir, j.id+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden baseline: %w", err)
		}
		ev.golden[dir+"/"+j.id] = want
	}
	return ev, nil
}

// setupReps is how many times set-up runs before each pass; setup_s is
// the median over all of them. Spreading the repetitions over the run
// keeps one burst of host contention from setting the figure, and with
// ten per pass the median is a warm repetition: the first one after a
// pass runs on caches the pass has just evicted, and its time moves
// with the host far more than the others'.
const setupReps = 10

func timedSetup(w workload, goldenRoot string, secs *[]float64) (*env, error) {
	var ev *env
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		e, err := setup(w, goldenRoot)
		if err != nil {
			return nil, err
		}
		*secs = append(*secs, time.Since(start).Seconds())
		ev = e
	}
	return ev, nil
}

// passOut is what one pass over a workload's jobs produced.
type passOut struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	checks     int
	passed     int
	attempted  int
	failed     int
	digest     []byte
	pool       poolStats
	// The report workload's pass also records its report-side figures.
	writeWall  time.Duration
	files      int
	bytes      int
	collectors []*obs.Collector
}

// poolStats are the harness pool's timings for one batch.
type poolStats struct {
	wall    time.Duration
	workers int
	elapsed []time.Duration // per job, in completion order
	done    []time.Duration // completion offsets from the batch start
}

// runPool runs the workload's jobs at one seed on a harness pool, hashes
// every output into the pass digest, tallies shape checks and compares
// seed-1 knob-free outputs with their golden baselines. With collect set
// every job gets its own telemetry collector.
func runPool(ev *env, w workload, seed int64, collect bool) passOut {
	jobs := make([]harness.Job, len(w.jobs))
	var out passOut
	for i, j := range w.jobs {
		jobs[i] = j.harnessJob(seed)
		if collect {
			jobs[i].Config.Obs = obs.NewCollector()
			out.collectors = append(out.collectors, jobs[i].Config.Obs)
		}
	}
	out.pool.workers = w.workers
	start := time.Now()
	runner := harness.Runner{Registry: ev.reg, Workers: w.workers, OnResult: func(_ int, r harness.JobResult) {
		out.pool.elapsed = append(out.pool.elapsed, r.Elapsed)
		out.pool.done = append(out.pool.done, time.Since(start))
	}}
	allocs, cpu := heapAllocBytes(), cpuTime()
	results := runner.Run(jobs)
	out.pool.wall = time.Since(start)
	out.wall = out.pool.wall
	out.cpu = cpuTime() - cpu
	out.allocBytes = allocatedSince(allocs)

	h := sha256.New()
	for i, r := range results {
		out.attempted++
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "decentbench: %s seed %d: %v\n", w.jobs[i].key, seed, r.Err)
			out.failed++
			continue
		}
		enc, err := r.Result.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "decentbench: %s seed %d: encode: %v\n", w.jobs[i].key, seed, err)
			out.failed++
			continue
		}
		sum := sha256.Sum256(enc)
		h.Write(sum[:])
		for _, c := range r.Result.Checks {
			out.checks++
			if c.OK {
				out.passed++
			}
		}
		if dir := w.jobs[i].goldenDir(); seed == 1 && dir != "" {
			if !bytes.Equal(append(enc, '\n'), ev.golden[dir+"/"+w.jobs[i].id]) {
				fmt.Fprintf(os.Stderr, "decentbench: %s seed 1 differs from %s/%s.json\n", w.jobs[i].key, dir, w.jobs[i].id)
				out.failed++
			}
		}
	}
	out.digest = h.Sum(nil)
	return out
}

// runReport generates the report tree for one seed, writes it under
// workDir and reads the verdict tallies back from its manifest.
func runReport(ev *env, w workload, seed int64, workDir string) passOut {
	var out passOut
	ids := make([]string, len(w.jobs))
	for i, j := range w.jobs {
		ids[i] = j.id
	}
	dir := filepath.Join(workDir, fmt.Sprintf("report-%d", seed))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "decentbench: clear %s: %v\n", dir, err)
	}
	out.attempted = len(w.jobs)
	allocs, cpu := heapAllocBytes(), cpuTime()
	start := time.Now()
	tree, err := report.Generate(ev.reg, report.Options{
		IDs: ids, Seeds: []int64{seed}, Scale: w.jobs[0].scale, HTML: true, Workers: w.workers,
	})
	if err != nil {
		out.wall = time.Since(start)
		fmt.Fprintf(os.Stderr, "decentbench: report seed %d: %v\n", seed, err)
		out.failed = len(w.jobs)
		return out
	}
	written := time.Now()
	werr := tree.WriteDir(dir)
	out.writeWall = time.Since(written)
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu
	out.allocBytes = allocatedSince(allocs)
	defer os.RemoveAll(dir)
	if werr != nil {
		fmt.Fprintf(os.Stderr, "decentbench: report seed %d: write: %v\n", seed, werr)
		out.failed = len(w.jobs)
		return out
	}

	out.failed = tree.RunErrors
	man, err := report.ParseManifest(tree.Lookup("manifest.json"))
	if err != nil || len(man.Claims) != len(w.jobs) {
		fmt.Fprintf(os.Stderr, "decentbench: report seed %d: manifest unreadable or incomplete: %v\n", seed, err)
		out.failed = len(w.jobs)
		return out
	}
	for _, c := range man.Claims {
		out.checks += c.Checks
		out.passed += c.ChecksPassed
	}
	// The manifest hashes every other artifact of the tree.
	sum := sha256.Sum256(tree.Lookup("manifest.json"))
	out.digest = sum[:]
	out.files = len(tree.Files)
	for _, f := range tree.Files {
		out.bytes += len(f.Data)
	}
	return out
}

// verifyGolden runs every knob-free job of the workload at seed 1 and
// compares each output byte for byte with its golden baseline. It runs
// after the timed section, so every run checks correctness whatever its
// seed.
func verifyGolden(ev *env, w workload, t *tally) {
	gw := workload{name: w.name, workers: w.workers}
	for _, j := range w.jobs {
		if j.goldenDir() != "" {
			gw.jobs = append(gw.jobs, j)
		}
	}
	if len(gw.jobs) == 0 {
		return
	}
	out := runPool(ev, gw, 1, false)
	t.add(out)
}

// runPass runs one untraced pass of the workload at pass index p.
func runPass(ev *env, w workload, o options, p int) passOut {
	runtime.GC()
	seed := passSeed(o.seed, p)
	if w.viaReport {
		return runReport(ev, w, seed, o.workDir)
	}
	return runPool(ev, w, seed, false)
}

func runWorkload(w workload, o options, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	if o.trace {
		return runTraced(w, o, stdout)
	}
	var setupSecs []float64
	ev, err := timedSetup(w, o.goldenDir, &setupSecs)
	if err != nil {
		return nil, err
	}
	var t tally
	var cpus, allocs []float64
	var checks, passed int
	digest := sha256.New()
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for p := 0; p < maxPasses && (p < w.fixedPasses || time.Since(start) < budget); p++ {
		if p > 0 {
			if _, err := timedSetup(w, o.goldenDir, &setupSecs); err != nil {
				return nil, err
			}
		}
		out := runPass(ev, w, o, p)
		t.add(out)
		cpus = append(cpus, out.cpu.Seconds())
		allocs = append(allocs, float64(out.allocBytes)/1e6)
		if p < w.fixedPasses {
			checks += out.checks
			passed += out.passed
			digest.Write(out.digest)
		}
	}
	verifyGolden(ev, w, &t)
	printDigest(stdout, w, o, digest, len(cpus))

	t.set("setup_s", median(setupSecs))
	t.set("cpu_s", median(cpus))
	t.set("alloc_mb", median(allocs))
	t.set("checks_pass_frac", frac(passed, checks))
	return t.result(), nil
}

func printDigest(w io.Writer, wl workload, o options, h hash.Hash, passes int) {
	fmt.Fprintf(w, "decentbench: %s: %d passes; digest of passes at seeds %d..%d: %s\n",
		wl.name, passes, passSeed(o.seed, 0), passSeed(o.seed, wl.fixedPasses-1), hex.EncodeToString(h.Sum(nil)))
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the cumulative bytes allocated on the heap by
// the process. The runtime counts small objects when a P's cached span is
// swapped out, so a reading may trail the true total by the spans in the
// per-P caches; allocatedSince collects first, which flushes them.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTime returns the user and system CPU time the process has used, on
// every thread: unlike wall time it leaves out time the host gave to
// other tenants.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("decentbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocatedSince returns the heap bytes allocated since the reading
// before, exactly. Call it after the timed section: it runs a collection.
func allocatedSince(before uint64) uint64 {
	runtime.GC()
	return heapAllocBytes() - before
}
