// Package benchart turns `go test -bench` output into a committed,
// machine-readable benchmark artifact (BENCH_*.json). The artifact is
// the repo's perf trajectory: every PR regenerates it, so reviewers can
// diff ns/op, B/op, and allocs/op per benchmark instead of trusting a
// prose claim.
package benchart

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line of `go test -bench -benchmem` output.
type Result struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix intact
	// (e.g. "BenchmarkEngine_HashJoin-8").
	Name string `json:"name"`
	// Runs is the iteration count the harness settled on (b.N).
	Runs int64 `json:"runs"`
	// NsPerOp, BytesPerOp, AllocsPerOp are the benchmark's headline
	// metrics. BytesPerOp/AllocsPerOp are -1 when the benchmark did
	// not report allocations.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Artifact is the committed JSON document.
type Artifact struct {
	// Pkg is the benchmarked Go package path.
	Pkg string `json:"pkg,omitempty"`
	// Bench is the -bench regexp the suite was run with.
	Bench string `json:"bench,omitempty"`
	// Benchtime is the -benchtime the suite was run with, if any.
	Benchtime string `json:"benchtime,omitempty"`
	// Results holds one entry per benchmark, sorted by name.
	Results []Result `json:"results"`
	// Derived holds named ratios computed from Results (e.g. the
	// sync-vs-async checkpoint barrier-stall speedup), so the headline
	// claim of a perf PR is a diffable number, not a prose computation.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// Ratio returns NsPerOp(num) / NsPerOp(den), matching benchmark names
// with or without the -N GOMAXPROCS suffix. ok is false when either
// side is missing or the denominator is zero.
func Ratio(results []Result, num, den string) (float64, bool) {
	n, okN := Find(results, num)
	d, okD := Find(results, den)
	if !okN || !okD || d.NsPerOp == 0 {
		return 0, false
	}
	return n.NsPerOp / d.NsPerOp, true
}

// Find returns the result named base, matching with or without the -N
// GOMAXPROCS suffix, so callers can look up "BenchmarkTwitter_CC" and
// hit "BenchmarkTwitter_CC-8".
func Find(results []Result, base string) (Result, bool) {
	for _, r := range results {
		if r.Name == base || strings.HasPrefix(r.Name, base+"-") {
			return r, true
		}
	}
	return Result{}, false
}

// Parse extracts benchmark results from `go test -bench` output. It
// tolerates interleaved non-benchmark lines (goos/goarch headers, PASS,
// MB/s columns from b.SetBytes) and averages duplicate names, which
// appear when the suite runs with -count > 1.
func Parse(r io.Reader) ([]Result, error) {
	type agg struct {
		res Result
		n   int64
	}
	byName := make(map[string]*agg)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		res, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		a, seen := byName[res.Name]
		if !seen {
			byName[res.Name] = &agg{res: res, n: 1}
			order = append(order, res.Name)
			continue
		}
		a.res.Runs += res.Runs
		a.res.NsPerOp += res.NsPerOp
		a.res.BytesPerOp += res.BytesPerOp
		a.res.AllocsPerOp += res.AllocsPerOp
		a.n++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchart: reading bench output: %v", err)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		a := byName[name]
		r := a.res
		if a.n > 1 {
			r.Runs /= a.n
			r.NsPerOp /= float64(a.n)
			r.BytesPerOp /= a.n
			r.AllocsPerOp /= a.n
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// parseLine parses a single benchmark result line:
//
//	BenchmarkX-8   120   9983 ns/op   55.1 MB/s   1024 B/op   17 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Runs: runs, BytesPerOp: -1, AllocsPerOp: -1}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, false
			}
			ok = true
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
		}
	}
	return res, ok
}

// RunGo executes the repo's benchmark suite via `go test` in dir and
// returns the parsed results plus the raw output (for diagnostics).
func RunGo(dir, bench, benchtime string) ([]Result, string, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, string(out), fmt.Errorf("benchart: go test -bench: %v", err)
	}
	results, perr := Parse(strings.NewReader(string(out)))
	if perr != nil {
		return nil, string(out), perr
	}
	if len(results) == 0 {
		return nil, string(out), fmt.Errorf("benchart: no benchmark results matched %q", bench)
	}
	return results, string(out), nil
}

// WriteJSON writes the artifact to path with stable formatting and a
// trailing newline, so regenerated artifacts diff cleanly.
func WriteJSON(path string, art Artifact) error {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return fmt.Errorf("benchart: encoding artifact: %v", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
