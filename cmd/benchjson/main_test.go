package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/netmodel
cpu: whatever
BenchmarkTransportSend-8         	 2000000	       512.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkTransportBroadcast-8    	   50000	     31000 ns/op	      16 B/op	       1 allocs/op
BenchmarkKernelAfterFuncPooled   	 3000000	       401 ns/op
PASS
ok  	repro/internal/netmodel	3.2s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	// Sorted by name; names keep the printed -GOMAXPROCS suffix
	// (benchstat-style) so a sub-benchmark's own "-1000" can never be
	// mistaken for one on single-CPU runners.
	if results[0].Name != "BenchmarkKernelAfterFuncPooled" ||
		results[1].Name != "BenchmarkTransportBroadcast-8" ||
		results[2].Name != "BenchmarkTransportSend-8" {
		t.Fatalf("order = %v, want name-sorted with suffixes kept", results)
	}
	send := results[2]
	if send.Iters != 2000000 || send.NsPerOp != 512.3 {
		t.Fatalf("send = %+v", send)
	}
	if send.Pkg != "repro/internal/netmodel" {
		t.Fatalf("pkg = %q, want the pkg: header value", send.Pkg)
	}
	if send.BPerOp == nil || *send.BPerOp != 0 || send.AllocsOp == nil || *send.AllocsOp != 0 {
		t.Fatalf("send memory stats = %+v, want 0/0", send)
	}
	// A line without -benchmem has no memory fields.
	if results[0].BPerOp != nil || results[0].AllocsOp != nil {
		t.Fatalf("kernel bench should have no memory stats: %+v", results[0])
	}
}

func TestParseSetBytesThroughputColumn(t *testing.T) {
	// b.SetBytes inserts an MB/s column between ns/op and B/op; the memory
	// fields behind it must still be captured.
	in := "BenchmarkX-8 \t 1000 \t 512 ns/op \t 45.00 MB/s \t 7 B/op \t 0 allocs/op\n"
	results, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(results))
	}
	r := results[0]
	if r.BPerOp == nil || *r.BPerOp != 7 || r.AllocsOp == nil || *r.AllocsOp != 0 {
		t.Fatalf("memory fields lost behind MB/s column: %+v", r)
	}
}

func TestParseKeepsSubBenchmarkParams(t *testing.T) {
	// GOMAXPROCS=1 output: Go omits the CPU suffix, so a trailing -1000 is
	// part of the name and must survive.
	in := "BenchmarkTransportSend/size-1000 \t 100 \t 42 ns/op\n" +
		"BenchmarkTransportSend/size-2000 \t 100 \t 84 ns/op\n"
	results, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(results) != 2 ||
		results[0].Name != "BenchmarkTransportSend/size-1000" ||
		results[1].Name != "BenchmarkTransportSend/size-2000" {
		t.Fatalf("sub-benchmark names mangled: %+v", results)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	results, err := Parse(strings.NewReader("hello\nnothing here\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from noise, want 0", len(results))
	}
}

func TestRunWritesDeterministicJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(sample), out, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("round-tripped %d results, want 3", len(results))
	}
	if err := run(strings.NewReader("no benchmarks"), out, ""); err == nil {
		t.Fatal("empty input should be an error, not an empty artifact")
	}
}

// allocBaseline builds a minimal baseline result for CheckAllocs tests.
func allocResult(pkg, name string, allocs int64) Result {
	return Result{Pkg: pkg, Name: name, Iters: 1, NsPerOp: 1, AllocsOp: &allocs}
}

func TestCheckAllocsHolds(t *testing.T) {
	baseline := []Result{allocResult("p", "BenchmarkTransportSend-64", 0)}
	// Different GOMAXPROCS suffix on the runner must still match.
	current := []Result{allocResult("p", "BenchmarkTransportSend-4", 0)}
	if _, err := CheckAllocs(baseline, current); err != nil {
		t.Fatalf("CheckAllocs: %v", err)
	}
}

func TestCheckAllocsRegression(t *testing.T) {
	baseline := []Result{allocResult("p", "BenchmarkTransportSend-8", 0)}
	current := []Result{allocResult("p", "BenchmarkTransportSend-8", 2)}
	_, err := CheckAllocs(baseline, current)
	if err == nil || !strings.Contains(err.Error(), "regressed from 0 to 2") {
		t.Fatalf("err = %v, want regression", err)
	}
}

func TestCheckAllocsMissingBenchmark(t *testing.T) {
	baseline := []Result{allocResult("p", "BenchmarkTransportSend-8", 0)}
	_, err := CheckAllocs(baseline, nil)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

func TestCheckAllocsGatesNonZeroBaselines(t *testing.T) {
	// A benchmark that allocates a fixed amount per op is pinned at that
	// count: more fails, equal or fewer passes.
	baseline := []Result{allocResult("p", "BenchmarkKademliaClosest-8", 1)}
	_, err := CheckAllocs(baseline, []Result{allocResult("p", "BenchmarkKademliaClosest-2", 4)})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkKademliaClosest: allocs/op regressed from 1 to 4") {
		t.Fatalf("err = %v, want regression from 1 to 4", err)
	}
	for _, allocs := range []int64{0, 1} {
		if _, err := CheckAllocs(baseline, []Result{allocResult("p", "BenchmarkKademliaClosest-2", allocs)}); err != nil {
			t.Fatalf("%d allocs/op against a pin of 1: %v", allocs, err)
		}
	}
	// A nonzero pin also needs -benchmem data to be checked.
	_, err = CheckAllocs(baseline, []Result{{Pkg: "p", Name: "BenchmarkKademliaClosest-2", Iters: 1, NsPerOp: 1}})
	if err == nil || !strings.Contains(err.Error(), "lack allocs/op") {
		t.Fatalf("err = %v, want missing -benchmem failure", err)
	}
	// A baseline entry without memory data pins no alloc count — but
	// every baseline entry, pinned or not, must still be measured.
	noMem := []Result{{Pkg: "p", Name: "BenchmarkX-8", Iters: 1, NsPerOp: 1}}
	if _, err := CheckAllocs(noMem, noMem); err != nil {
		t.Fatalf("CheckAllocs: %v", err)
	}
}

func TestCheckAllocsMissingUnpinnedBenchmark(t *testing.T) {
	// Disappearing from the measured set fails for every baseline entry,
	// with or without an alloc pin: a renamed or filtered-out benchmark
	// must not silently shrink the gate.
	baseline := []Result{allocResult("p", "BenchmarkOther-8", 3)}
	_, err := CheckAllocs(baseline, []Result{allocResult("p", "BenchmarkElse-8", 0)})
	if err == nil || !strings.Contains(err.Error(), "missing from the measured set") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
	_, err = CheckAllocs([]Result{{Pkg: "p", Name: "BenchmarkX-8"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "missing from the measured set") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

func TestRunCheckAllocsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")
	if err := run(strings.NewReader(sample), base, ""); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// The same input passes its own baseline, with no -out required.
	if err := run(strings.NewReader(sample), "", base); err != nil {
		t.Fatalf("self-check: %v", err)
	}
	// A leaked allocation on the pinned 0-alloc path fails the gate.
	leaky := strings.Replace(sample,
		"2000000	       512.3 ns/op	       0 B/op	       0 allocs/op",
		"2000000	       512.3 ns/op	      24 B/op	       3 allocs/op", 1)
	err := run(strings.NewReader(leaky), "", base)
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Fatalf("err = %v, want allocation-regression failure", err)
	}
	// So does one more allocation on a path pinned at 1 allocs/op.
	leaky = strings.Replace(sample,
		"50000	     31000 ns/op	      16 B/op	       1 allocs/op",
		"50000	     31000 ns/op	      32 B/op	       2 allocs/op", 1)
	err = run(strings.NewReader(leaky), "", base)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkTransportBroadcast: allocs/op regressed from 1 to 2") {
		t.Fatalf("err = %v, want allocation-regression failure on the nonzero pin", err)
	}
}

func TestCheckAllocsRejectsCollapsingNames(t *testing.T) {
	current := []Result{
		allocResult("p", "BenchmarkSend/batch-8", 0),
		allocResult("p", "BenchmarkSend/batch-64", 0),
	}
	_, err := CheckAllocs(nil, current)
	if err == nil || !strings.Contains(err.Error(), "collapse to the same identity") {
		t.Fatalf("err = %v, want collapsing-name rejection", err)
	}
}

// TestCheckAllocsReportsNewEntries pins the new-entry contract: current
// benchmarks absent from the baseline are returned as candidates instead
// of failing or vanishing silently.
func TestCheckAllocsReportsNewEntries(t *testing.T) {
	baseline := []Result{allocResult("p", "BenchmarkTransportSend-8", 0)}
	current := []Result{
		allocResult("p", "BenchmarkTransportSend-16", 0),
		allocResult("p", "BenchmarkTransportSendTelemetryOn-16", 0),
		allocResult("q", "BenchmarkKernelNew-4", 1),
	}
	newEntries, err := CheckAllocs(baseline, current)
	if err != nil {
		t.Fatalf("CheckAllocs: %v", err)
	}
	want := []string{"p BenchmarkTransportSendTelemetryOn", "q BenchmarkKernelNew"}
	if len(newEntries) != len(want) {
		t.Fatalf("newEntries = %v, want %v", newEntries, want)
	}
	for i := range want {
		if newEntries[i] != want[i] {
			t.Errorf("newEntries[%d] = %q, want %q", i, newEntries[i], want[i])
		}
	}
}
