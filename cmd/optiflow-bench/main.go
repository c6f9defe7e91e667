// Command optiflow-bench regenerates every figure of the paper and the
// ablation experiments recorded in EXPERIMENTS.md, printing the same
// per-iteration series the demo GUI plots together with explicit
// shape checks (plummet at the failure iteration, elevated recovery
// messages, L1 spike, zero failure-free checkpoint overhead, ...).
//
// Timings are the job of `go run ./benchmark` (the ledger) and of the
// plain `go test -bench` targets in bench_test.go.
//
// Usage:
//
//	optiflow-bench                 # run everything
//	optiflow-bench -exp fig2       # one experiment (fig1a fig1b fig2 fig4 twitter overhead
//	                               #   recovery compensation bulkdelta als confined kmeans chaos)
//	optiflow-bench -chaos          # seeded chaos soak against the recovery supervisor
//	optiflow-bench -n 100000 -p 8  # scale the Twitter-like graph and parallelism
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

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
	flag.Parse()

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
