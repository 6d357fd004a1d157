// Command benchjson converts `go test -bench` text output into a stable
// JSON array so CI can archive benchmark trajectories as artifacts:
//
//	go test -run '^$' -bench Transport -benchmem ./internal/netmodel | benchjson -out BENCH_transport.json
//
// Each benchmark line becomes one object with the name exactly as printed
// (including any -GOMAXPROCS suffix, benchstat-style: stripping it can eat
// a sub-benchmark's trailing "-1000" on single-CPU runners where Go omits
// the suffix), iteration count, ns/op, and — when -benchmem is on — B/op
// and allocs/op, plus the owning package from the `pkg:` header lines.
// Results are sorted by (package, name) so the artifact is deterministic
// regardless of package ordering.
//
// With -check-allocs BASELINE.json the parsed results are also gated
// against a committed baseline: every benchmark the baseline reports
// allocs/op for must report no more than that count now (matched by
// package + name with the machine-dependent -GOMAXPROCS suffix stripped),
// so allocation regressions on the pinned paths fail CI even though ns/op
// varies by runner. A 0-alloc hot path stays at 0; a path that allocates a
// fixed amount per op, like a top-K selection's one result slice, cannot
// creep up.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Pkg is the import path from the most recent `pkg:` header line, so
	// same-named benchmarks from different packages stay distinguishable.
	Pkg      string  `json:"pkg,omitempty"`
	Name     string  `json:"name"`
	Iters    int64   `json:"iterations"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   *int64  `json:"bytes_per_op,omitempty"`
	AllocsOp *int64  `json:"allocs_per_op,omitempty"`
}

// benchLine matches `BenchmarkName-8  123  45.6 ns/op [ 7.8 MB/s ] [ 7 B/op
// 0 allocs/op ]` — the MB/s column appears when a benchmark calls
// b.SetBytes and must not detach the memory fields behind it.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// Parse extracts benchmark results from go test output, sorted by
// (package, name).
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := Result{Pkg: pkg, Name: m[1], Iters: iters, NsPerOp: ns}
		if m[4] != "" {
			b, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad B/op in %q: %w", sc.Text(), err)
			}
			res.BPerOp = &b
		}
		if m[5] != "" {
			a, err := strconv.ParseInt(m[5], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad allocs/op in %q: %w", sc.Text(), err)
			}
			res.AllocsOp = &a
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// baseName strips a trailing "-<digits>" GOMAXPROCS suffix so results
// from machines with different core counts compare by benchmark
// identity. Safe here because none of the pinned benchmarks are
// sub-benchmarks with their own numeric suffix (CheckAllocs is the only
// consumer; the JSON artifact keeps full names).
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// CheckAllocs enforces the allocation-regression gate: every benchmark in
// the committed baseline must still exist in the current results (a
// pinned benchmark disappearing from the measured set — renamed, deleted,
// or dropped by a narrowed -bench filter — is a hard failure, otherwise
// the gate would silently stop gating), and every benchmark whose
// baseline reports allocs/op must report at most that many, with
// -benchmem on. Fewer allocs/op than the baseline passes; commit the
// lower figure to tighten the pin. ns/op is machine-dependent and
// deliberately not compared. Current
// benchmarks the baseline does not know are not an error — they are
// returned (sorted, by stripped identity) so callers can surface them as
// candidates for pinning instead of silently skipping them.
func CheckAllocs(baseline, current []Result) (newEntries []string, err error) {
	cur := make(map[string]Result, len(current))
	for _, r := range current {
		key := r.Pkg + "\x00" + baseName(r.Name)
		// Two benchmarks collapsing to one key (a sub-benchmark with its
		// own trailing number, or a -cpu list) would let one silently
		// shadow the other's regression — refuse rather than guess.
		if prev, dup := cur[key]; dup {
			return nil, fmt.Errorf("benchjson: benchmarks %s and %s collapse to the same identity %s after suffix stripping; rename them or drop -cpu lists",
				prev.Name, r.Name, baseName(r.Name))
		}
		cur[key] = r
	}
	known := make(map[string]bool, len(baseline))
	var violations []string
	for _, b := range baseline {
		key := b.Pkg + "\x00" + baseName(b.Name)
		known[key] = true
		c, ok := cur[key]
		if !ok {
			violations = append(violations, fmt.Sprintf(
				"%s %s: pinned benchmark missing from the measured set", b.Pkg, baseName(b.Name)))
			continue
		}
		if b.AllocsOp == nil {
			continue
		}
		switch {
		case c.AllocsOp == nil:
			violations = append(violations, fmt.Sprintf(
				"%s %s: current results lack allocs/op (run with -benchmem)", b.Pkg, baseName(b.Name)))
		case *c.AllocsOp > *b.AllocsOp:
			violations = append(violations, fmt.Sprintf(
				"%s %s: allocs/op regressed from %d to %d", b.Pkg, baseName(b.Name), *b.AllocsOp, *c.AllocsOp))
		}
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("benchjson: allocation regression on the pinned hot paths:\n  %s",
			strings.Join(violations, "\n  "))
	}
	for key := range cur {
		if !known[key] {
			newEntries = append(newEntries, strings.ReplaceAll(key, "\x00", " "))
		}
	}
	sort.Strings(newEntries)
	return newEntries, nil
}

func run(in io.Reader, outPath, checkPath string) error {
	results, err := Parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			return fmt.Errorf("benchjson: read baseline: %w", err)
		}
		var baseline []Result
		if err := json.Unmarshal(data, &baseline); err != nil {
			return fmt.Errorf("benchjson: baseline %s: %w", checkPath, err)
		}
		newEntries, err := CheckAllocs(baseline, results)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocs/op pins in %s hold\n", checkPath)
		for _, name := range newEntries {
			fmt.Fprintf(os.Stderr, "benchjson: new (not in baseline): %s\n", name)
		}
		if outPath == "" {
			return nil
		}
	}
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(outPath, enc, 0o644)
}

func main() {
	in := flag.String("in", "", "input file (default: stdin)")
	out := flag.String("out", "", "output file (default: stdout; omitted when only checking)")
	check := flag.String("check-allocs", "", "baseline JSON; fail if any benchmark now allocates more per op than its baseline allocs/op")
	flag.Parse()
	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	if err := run(src, *out, *check); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
