// Command optiflow-vet lints the repository's Go sources for the
// invariants that keep optimistic recovery sound and the engine
// deterministic — checks go vet cannot express. Every rule runs over
// the packages internal/deepvet type-checks (see that package for the
// rule catalogue, or run with -catalogue).
//
// Usage:
//
//	optiflow-vet ./...
//	optiflow-vet internal/... cmd/...
//	optiflow-vet -rules poolescape,lockorder ./...
//	optiflow-vet -json ./...
//
// By default it prints one finding per line in go-vet style and exits
// nonzero if any rule fired; -json emits a machine-readable array for
// CI and editor integrations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"optiflow/internal/deepvet"
)

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	Rule   string `json:"rule"`
	Msg    string `json:"msg"`
}

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		rules     = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		catalogue = flag.Bool("catalogue", false, "print the rule catalogue and exit")
	)
	flag.Parse()

	if *catalogue {
		for _, r := range deepvet.Rules() {
			fmt.Printf("%-14s %s\n", r.Name, r.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "optiflow-vet: %v\n", err)
		os.Exit(2)
	}

	var opts deepvet.Options
	if *rules != "" {
		for _, r := range strings.Split(*rules, ",") {
			if r = strings.TrimSpace(r); r != "" {
				opts.Rules = append(opts.Rules, r)
			}
		}
	}

	findings, err := deepvet.Check(root, patterns, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optiflow-vet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "optiflow-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "optiflow-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
