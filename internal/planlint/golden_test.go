package planlint_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/dataflow"
	"optiflow/internal/planlint"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestFigurePlanGoldens pins the exact Explain() and Dot() renderings
// of the two paper-figure plans (Connected Components and PageRank,
// Fig. 1), plus their planlint-annotated variants. These outputs are
// documentation artifacts — cmd/optiflow-graph prints them and the
// README embeds them — so formatting drift must be a conscious choice:
// regenerate with `go test ./internal/planlint -run Goldens -update`.
func TestFigurePlanGoldens(t *testing.T) {
	cases := []struct {
		name string
		plan *dataflow.Plan
	}{
		{"cc-figure", cc.FigurePlan()},
		{"pagerank-figure", pagerank.FigurePlan()},
	}
	for _, tc := range cases {
		renderings := []struct {
			suffix string
			got    string
		}{
			{"explain", tc.plan.Explain()},
			{"dot", tc.plan.Dot()},
			{"lint-explain", planlint.Explain(tc.plan)},
			{"lint-dot", planlint.Dot(tc.plan)},
		}
		for _, r := range renderings {
			checkGolden(t, tc.name+"."+r.suffix, r.got)
		}
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Run(name, func(t *testing.T) {
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if got != string(want) {
			t.Fatalf("%s drifted from golden.\n--- want\n%s\n--- got\n%s", name, want, got)
		}
	})
}
