package planlint_test

import (
	"testing"

	"optiflow/internal/algo/als"
	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/kmeans"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/dataflow"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/planlint"
	"optiflow/internal/vertexcentric"
)

// TestAllRepoPlansAreLintClean runs the semantic analyzer over every
// plan the repository builds — the executable step plans of every
// exec.Engine job (the same plans examples/ run through the public
// API; delta CC and PageRank run on exec.ColEngine and have none) and
// the Fig. 1 rendering plans — asserting none carries an
// Error-severity diagnostic. exec.Run refuses Error plans, so an Error
// here means an algorithm stopped being executable.
func TestAllRepoPlansAreLintClean(t *testing.T) {
	g, _ := gen.Demo()

	km, err := kmeans.New([]kmeans.Point{
		{0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}, {20, 0}, {21, 1},
	}, kmeans.Config{K: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	alsJob := als.New(als.SyntheticRatings(12, 9, 2, 0.5, 0.01, 7), als.Config{Rank: 2, Parallelism: 2})

	vc := vertexcentric.NewRunner(vertexcentric.Program[uint64, uint64]{
		Name: "lint-sweep-cc",
		Init: func(v graph.VertexID) (uint64, []vertexcentric.Outbound[uint64]) {
			return uint64(v), nil
		},
		Compute: func(v graph.VertexID, st uint64, msgs []uint64, send func(graph.VertexID, uint64)) (uint64, bool) {
			return st, false
		},
		Compensate: func(v graph.VertexID) uint64 { return uint64(v) },
	}, g, 2)

	plans := []struct {
		name string
		plan *dataflow.Plan
	}{
		{"cc-figure", cc.FigurePlan()},
		{"pagerank-figure", pagerank.FigurePlan()},
		{"kmeans-step", km.StepPlan()},
		{"als-solve-users", alsJob.HalfStepPlan(true)},
		{"als-solve-items", alsJob.HalfStepPlan(false)},
		{"vertexcentric-step", vc.StepPlan()},
	}

	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.plan.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			diags := planlint.Lint(tc.plan)
			if errs := planlint.Errors(diags); len(errs) > 0 {
				t.Fatalf("plan %q has Error diagnostics:\n%s", tc.name, planlint.Report(errs))
			}
			t.Logf("plan %q: %d diagnostic(s)\n%s", tc.name, len(diags), planlint.Report(diags))
		})
	}
}
