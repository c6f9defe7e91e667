// Command optiflow-bench regenerates every figure of the paper and the
// ablation experiments recorded in EXPERIMENTS.md, printing the same
// per-iteration series the demo GUI plots together with explicit
// shape checks (plummet at the failure iteration, elevated recovery
// messages, L1 spike, zero failure-free checkpoint overhead, ...).
//
// It doubles as the benchmark-artifact pipeline: with -gobench it runs
// the repo's `go test -bench` suites and writes a BENCH_*.json artifact
// (ns/op, B/op, allocs/op per benchmark) so every PR has a perf
// trajectory to compare against.
//
// Usage:
//
//	optiflow-bench                 # run everything
//	optiflow-bench -exp fig2       # one experiment (fig1a fig1b fig2 fig4 twitter overhead
//	                               #   recovery compensation bulkdelta als confined kmeans chaos)
//	optiflow-bench -chaos          # seeded chaos soak against the recovery supervisor
//	optiflow-bench -n 100000 -p 8  # scale the Twitter-like graph and parallelism
//	optiflow-bench -gobench 'BenchmarkEngine|BenchmarkTwitter' -benchtime 3x -json BENCH_PR2.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"optiflow/internal/benchart"
	"optiflow/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run, or 'all'")
	chaos := flag.Bool("chaos", false, "run the chaos soak (shorthand for -exp chaos): random boundary, mid-step and during-recovery failures against the supervised cluster, all policies, fixed seed matrix")
	n := flag.Int("n", 50000, "vertex count of the synthetic Twitter-like graph")
	p := flag.Int("p", 4, "parallelism (tasks and state partitions)")
	seed := flag.Int64("seed", 20150531, "generator seed")
	csvDir := flag.String("csv", "", "directory to export per-experiment CSV series into")
	svgDir := flag.String("svg", "", "directory to export figure SVGs into")
	gobench := flag.String("gobench", "", "run `go test -bench` with this regexp and emit a JSON artifact instead of the experiments")
	benchtime := flag.String("benchtime", "", "-benchtime passed through to go test (e.g. 3x, 1s)")
	jsonPath := flag.String("json", "BENCH.json", "artifact path for -gobench results")
	maxAllocs := flag.String("maxallocs", "", "comma-separated Benchmark=ceiling pairs; with -gobench, fail if a listed benchmark is missing or its allocs/op exceeds the ceiling")
	flag.Parse()

	if *gobench != "" {
		runGoBench(*gobench, *benchtime, *jsonPath, *maxAllocs)
		return
	}
	if *chaos {
		*exp = "chaos"
	}

	runner := experiments.NewRunner(experiments.Config{
		Parallelism: *p,
		TwitterSize: *n,
		Seed:        *seed,
	})

	var reports []*experiments.Report
	if *exp == "all" {
		all, err := runner.RunAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "optiflow-bench: %v\n", err)
			os.Exit(1)
		}
		reports = all
	} else {
		rep, err := runner.Run(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optiflow-bench: %v\n", err)
			os.Exit(1)
		}
		reports = []*experiments.Report{rep}
	}

	failed := 0
	for _, rep := range reports {
		fmt.Println(rep.Render())
		if !rep.Passed() {
			failed++
		}
		if *csvDir != "" {
			writeAll(*csvDir, rep.CSVs)
		}
		if *svgDir != "" {
			writeAll(*svgDir, rep.SVGs)
		}
	}
	fmt.Printf("experiments: %d run, %d with failing shape checks\n", len(reports), failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// runGoBench executes the Go benchmark suite and writes the committed
// perf artifact. The raw `go test` output streams to stdout so failures
// stay diagnosable in CI logs.
func runGoBench(bench, benchtime, jsonPath, maxAllocs string) {
	results, raw, err := benchart.RunGo(".", bench, benchtime)
	fmt.Print(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optiflow-bench: %v\n", err)
		os.Exit(1)
	}
	art := benchart.Artifact{
		Pkg:       "optiflow",
		Bench:     bench,
		Benchtime: benchtime,
		Results:   results,
		Derived:   derivedRatios(results),
	}
	if err := benchart.WriteJSON(jsonPath, art); err != nil {
		fmt.Fprintf(os.Stderr, "optiflow-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", jsonPath, len(results))
	if err := enforceAllocCeilings(results, maxAllocs); err != nil {
		fmt.Fprintf(os.Stderr, "optiflow-bench: %v\n", err)
		os.Exit(1)
	}
}

// enforceAllocCeilings is the allocation-regression guard behind
// -maxallocs. A listed benchmark that is absent from the run fails the
// guard too: a renamed or filtered-out benchmark must not let the
// ceiling pass vacuously.
func enforceAllocCeilings(results []benchart.Result, spec string) error {
	if spec == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, limitStr, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("-maxallocs entry %q: want Benchmark=ceiling", pair)
		}
		limit, err := strconv.ParseInt(limitStr, 10, 64)
		if err != nil {
			return fmt.Errorf("-maxallocs entry %q: bad ceiling: %v", pair, err)
		}
		r, found := benchart.Find(results, name)
		if !found {
			return fmt.Errorf("-maxallocs: benchmark %q not present in this run", name)
		}
		if r.AllocsPerOp < 0 {
			return fmt.Errorf("-maxallocs: benchmark %q reported no allocation figures", name)
		}
		if r.AllocsPerOp > limit {
			return fmt.Errorf("allocation regression: %s allocated %d allocs/op, ceiling is %d", r.Name, r.AllocsPerOp, limit)
		}
		fmt.Printf("alloc guard: %s at %d allocs/op (ceiling %d)\n", r.Name, r.AllocsPerOp, limit)
	}
	return nil
}

// derivedRatios computes the headline speedups when the relevant
// benchmark pairs appear in the run, so the artifact records the claim
// (e.g. "async checkpointing cuts barrier stall N×") as a number.
func derivedRatios(results []benchart.Result) map[string]float64 {
	pairs := map[string][2]string{
		"barrier_stall_speedup_cc": {
			"BenchmarkCheckpointBarrier_CC_Sync", "BenchmarkCheckpointBarrier_CC_Async"},
		"barrier_stall_speedup_pagerank": {
			"BenchmarkCheckpointBarrier_PR_Sync", "BenchmarkCheckpointBarrier_PR_Async"},
		"barrier_stall_speedup_cc_incremental": {
			"BenchmarkCheckpointBarrier_CC_Incremental", "BenchmarkCheckpointBarrier_CC_AsyncIncremental"},
		"columnar_speedup_cc": {
			"BenchmarkTwitter_CC_Boxed", "BenchmarkTwitter_CC"},
		"columnar_speedup_pagerank": {
			"BenchmarkTwitter_PR_Boxed", "BenchmarkTwitter_PR"},
	}
	derived := make(map[string]float64)
	for name, p := range pairs {
		if r, ok := benchart.Ratio(results, p[0], p[1]); ok {
			derived[name] = r
		}
	}
	if len(derived) == 0 {
		return nil
	}
	return derived
}

func writeAll(dir string, files map[string]string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "optiflow-bench: %v\n", err)
		os.Exit(1)
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "optiflow-bench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
