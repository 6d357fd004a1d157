package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/netmodel"
	"repro/internal/overlay/kademlia"
	"repro/internal/sim"
)

const testGolden = "../internal/experiments/testdata"

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// spec is the part of BENCHMARK.json the self-test checks.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// brief runs a workload with one fixed pass and almost no time budget.
func brief(t *testing.T, w workload, trace bool, golden string) *result {
	t.Helper()
	w.fixedPasses = 1
	o := options{workload: w.name, seed: 1, seconds: 0.001, trace: trace, goldenDir: golden, workDir: t.TempDir()}
	res, err := runWorkload(w, o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// checkMetrics requires the result to print exactly the listed metrics,
// each with its listed unit.
func checkMetrics(t *testing.T, label string, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", label, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestEveryMetricPrinted runs each workload briefly, untraced and traced,
// and checks the printed metrics against BENCHMARK.json.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadNames))
	}
	for _, sw := range s.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", sw.Name)
			continue
		}
		res := brief(t, w, false, testGolden)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name, res, s.EndToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v", w.name, name, m.Value)
			}
		}
		if testing.Short() {
			continue
		}
		res = brief(t, w, true, testGolden)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct %v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name+" traced", res, s.PerLayer)
	}
}

// TestCommandLine drives the command as the benchmark runner does and
// checks the shape of its last output line.
func TestCommandLine(t *testing.T) {
	var out, errs bytes.Buffer
	args := []string{"--workload", "ledger", "--seed", "0", "--seconds", "0.001", "--trace", "0",
		"--golden", testGolden, "--work", t.TempDir()}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("result lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("result has %d keys, want 4", len(last))
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestCorruptedGoldenFails corrupts one expected output and requires the
// benchmark to count the mismatch as a failed operation.
func TestCorruptedGoldenFails(t *testing.T) {
	golden := t.TempDir()
	for _, dir := range []string{"golden", "golden_scale1"} {
		if err := os.CopyFS(filepath.Join(golden, dir), os.DirFS(filepath.Join(testGolden, dir))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(golden, "golden_scale1", "E08.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w := ledgerWorkload
	w.jobs = []job{atScale1("E08")}
	res := brief(t, w, false, golden)
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted golden: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	res = brief(t, w, false, testGolden)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("intact golden: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

type panicking struct{ core.Experiment }

func (panicking) Run(core.Config) (*core.Result, error) { panic("boom") }

func TestPanicIsRunError(t *testing.T) {
	ev, err := setup(ledgerWorkload, testGolden)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ev.reg.Get("E08")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (guarded{panicking{e}}).Run(core.Config{}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic surfaced as %v", err)
	}
}

func TestFuncLayer(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/overlay/kademlia.(*lookup).add":       "overlay",
		"repro/internal/overlay.CloserXOR":                    "overlay",
		"repro/internal/sim.(*Sim).Run":                       "kernel",
		"repro/internal/sim.push[go.shape.*repro/internal/x]": "kernel",
		"repro/internal/netmodel.(*Net).Send":                 "transport",
		"repro/internal/offchain.(*Network).route":            "protocol",
		"repro/internal/experiments.e03DHTLookup.func1":       "experiment",
		"repro/internal/report.Generate":                      "report",
		"repro/internal/lint.Run":                             "",
		"sort.pdqsort":                                        "",
		"main.runPool":                                        "",
	} {
		if got := funcLayer(name); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestCPUShares profiles a Kademlia bootstrap, whose time is in sorts
// called from the overlay, and checks the attribution charges it there.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for i := int64(0); i < 3; i++ {
		s := sim.New(sim.WithSeed(i + 1))
		nw := kademlia.NewNetwork(s, netmodel.New(s), kademlia.KADConfig())
		for j := 0; j < 5000; j++ {
			nw.AddNode(netmodel.Europe)
		}
		if err := nw.Bootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
		// runtime is left out: under -race it also holds the detector.
		if l != "overlay" && l != "runtime" && shares[l] >= shares["overlay"] {
			t.Errorf("%s share %.3f >= overlay share %.3f", l, shares[l], shares["overlay"])
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("a corrupt profile parsed")
	}
}

// TestLintClean holds the benchmark to the repository's decentlint
// contracts.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the module")
	}
	findings, err := lint.Run(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
