package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// tracedPass is one seed's work in the traced run: the harness pool over
// the workload's jobs and, for the report workload, the full report
// generation of the same jobs.
type tracedPass struct {
	pool passOut
	gen  passOut
}

// runTracedPass runs one seed. collect attaches an obs collector to every
// pool job.
func runTracedPass(ev *env, w workload, o options, p int, collect bool) tracedPass {
	seed := passSeed(o.seed, p)
	var tp tracedPass
	runtime.GC()
	tp.pool = runPool(ev, w, seed, collect)
	if w.viaReport {
		runtime.GC()
		tp.gen = runReport(ev, w, seed, o.workDir)
	}
	return tp
}

// runTraced is the per-layer run. It repeats the workload's passes twice,
// first with telemetry off and then, on the same seeds, with an obs
// collector per job under a CPU profile; the outputs of the two must be
// identical. It then times every experiment job of the benchmark on its
// own, the report layer against a harness-only run of the same jobs, and
// each layer's public functions through the probes. Every traced run
// prints the same metric names, whatever its workload.
func runTraced(w workload, o options, stdout io.Writer) (*result, error) {
	ev, err := setup(w, o.goldenDir)
	if err != nil {
		return nil, err
	}
	var t tally
	phase := time.Duration(o.seconds * 0.3 * float64(time.Second))

	var plain []tracedPass
	start := time.Now()
	for p := 0; p < 2 || (p < maxPasses && time.Since(start) < phase); p++ {
		plain = append(plain, runTracedPass(ev, w, o, p, false))
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	peak := startHeapPeak()
	traced := make([]tracedPass, len(plain))
	for p := range plain {
		traced[p] = runTracedPass(ev, w, o, p, true)
	}
	peakBytes := peak.stop()
	pprof.StopCPUProfile()

	var passWalls, overheads, nsPerEvent []float64
	var events, sent, delivered uint64
	maxPending := 0
	for p := range plain {
		for _, tp := range []tracedPass{plain[p], traced[p]} {
			for _, out := range []passOut{tp.pool, tp.gen} {
				t.add(out)
			}
		}
		if !bytes.Equal(plain[p].pool.digest, traced[p].pool.digest) || !bytes.Equal(plain[p].gen.digest, traced[p].gen.digest) {
			fmt.Fprintf(os.Stderr, "decentbench: %s seed %d: telemetry changed the outputs\n", w.name, passSeed(o.seed, p))
			t.fail(1)
		}
		overheads = append(overheads, traced[p].pool.wall.Seconds()/plain[p].pool.wall.Seconds()-1)
		wall := plain[p].pool.wall
		if w.viaReport {
			wall = plain[p].gen.wall
		}
		passWalls = append(passWalls, wall.Seconds())
		var passEvents uint64
		for _, c := range traced[p].pool.collectors {
			snap := c.Snapshot()
			passEvents += snap.Sim.Fired
			maxPending = max(maxPending, snap.Sim.MaxPending)
			sent += counter(snap, "net.msgs_sent")
			delivered += counter(snap, "net.msgs_delivered")
		}
		events += passEvents
		nsPerEvent = append(nsPerEvent, float64(plain[p].pool.wall.Nanoseconds())/float64(max(passEvents, 1)))
	}
	n := float64(len(plain))
	t.set("wall_s", median(passWalls))
	t.set("kernel.events", float64(events)/n)
	t.set("kernel.max_pending", float64(maxPending))
	t.set("kernel.ns_per_event", median(nsPerEvent))
	t.set("transport.msgs_sent", float64(sent)/n)
	t.set("transport.delivered_frac", frac(int(delivered), int(sent)))
	t.set("obs.overhead_frac", median(overheads))
	t.set("mem.peak_heap_mb", float64(peakBytes)/1e6)
	setHarness(&t, plain)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		t.set("cpu_share."+l, shares[l])
	}

	// The report layer: measured on the report workload's own passes, and
	// on three seeds of the report jobs on every other workload, so all
	// traced runs print it.
	reportPasses := plain
	if !w.viaReport {
		rev, err := setup(reportWorkload, o.goldenDir)
		if err != nil {
			return nil, err
		}
		reportPasses = nil
		for p := 0; p < 3; p++ {
			rp := runTracedPass(rev, reportWorkload, o, p, false)
			for _, out := range []passOut{rp.pool, rp.gen} {
				t.add(out)
			}
			reportPasses = append(reportPasses, rp)
		}
	}
	setReport(&t, reportPasses)

	if err := runExperimentStage(&t, ev.reg, passSeed(o.seed, 0)); err != nil {
		return nil, err
	}
	if err := runProbes(&t, passSeed(o.seed, 0)); err != nil {
		return nil, err
	}
	verifyGolden(ev, w, &t)
	fmt.Fprintf(stdout, "decentbench: %s traced: %d passes per phase\n", w.name, len(plain))
	return t.result(), nil
}

func counter(s obs.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Total
		}
	}
	return 0
}

// setHarness derives the pool metrics from the untraced passes: busy
// fraction (job time over worker time), tail (first worker left idle to
// the end of the batch) and the median job time.
func setHarness(t *tally, passes []tracedPass) {
	var busy, tails, jobs []float64
	for _, tp := range passes {
		ps := tp.pool.pool
		workers := min(ps.workers, len(ps.elapsed))
		var sum time.Duration
		for _, e := range ps.elapsed {
			sum += e
			jobs = append(jobs, float64(e)/float64(time.Millisecond))
		}
		busy = append(busy, sum.Seconds()/(float64(workers)*ps.wall.Seconds()))
		// Workers pick up the next job as soon as they finish one, so the
		// first worker goes idle at completion len-workers+1.
		tails = append(tails, (ps.wall - ps.done[len(ps.done)-workers]).Seconds())
	}
	t.set("harness.busy_frac", median(busy))
	t.set("harness.tail_s", median(tails))
	t.set("harness.job_ms_p50", median(jobs))
}

// setReport splits the report command's time from outside: rendering is
// the CPU time of Generate minus that of a harness-only run of the same
// jobs at the same seed, the median over the seeds. CPU time, unlike the
// wall time of a two-worker pool, does not move with how the jobs happen
// to fall on the workers, which alone exceeds rendering's share.
func setReport(t *tally, passes []tracedPass) {
	var render, write []float64
	last := passes[len(passes)-1].gen
	for _, tp := range passes {
		render = append(render, (tp.gen.cpu - tp.gen.writeWall - tp.pool.cpu).Seconds())
		write = append(write, tp.gen.writeWall.Seconds())
	}
	t.set("report.render_s", median(render))
	t.set("report.write_s", median(write))
	t.set("report.files", float64(last.files))
	t.set("report.bytes", float64(last.bytes))
}

// runExperimentStage runs every experiment job of the benchmark once on
// its own, telemetry off, and records its wall time and heap allocation.
func runExperimentStage(t *tally, reg *core.Registry, seed int64) error {
	seen := make(map[string]bool)
	for _, name := range workloadNames {
		for _, j := range workloads[name].jobs {
			if seen[j.key] {
				continue
			}
			seen[j.key] = true
			runtime.GC()
			cfg := j.harnessJob(seed).Config
			allocs := heapAllocBytes()
			start := time.Now()
			_, err := reg.Run(j.id, cfg)
			el := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", j.key, err)
			}
			t.ok(1)
			t.set("experiment."+j.key+".run_ms", float64(el)/float64(time.Millisecond))
			t.set("experiment."+j.key+".alloc_mb", float64(allocatedSince(allocs))/1e6)
		}
	}
	return nil
}

// heapPeak samples the live heap until stopped and keeps the largest
// reading.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak.
func (h *heapPeak) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
