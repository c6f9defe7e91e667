package main

import (
	"fmt"
	"sort"

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

// planBuilders maps the names accepted by `optiflow-graph plan -name`
// to constructors. Figure plans are the paper's Fig. 1 renderings with
// in-plan compensation operators; step plans are the per-superstep
// plans the exec.Engine jobs actually execute, built on the demo graph
// (or a small synthetic input) so they can be rendered without any
// data. CC (delta and bulk) and PageRank run on exec.ColEngine, which
// has no plan to render; their dataflow is the figure.
var planBuilders = map[string]func(par int) *dataflow.Plan{
	"cc-figure":       func(int) *dataflow.Plan { return cc.FigurePlan() },
	"pagerank-figure": func(int) *dataflow.Plan { return pagerank.FigurePlan() },
	"kmeans-step": func(par int) *dataflow.Plan {
		data := []kmeans.Point{{0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}}
		km, err := kmeans.New(data, kmeans.Config{K: 2, Parallelism: par})
		if err != nil {
			fail("kmeans: %v", err)
		}
		return km.StepPlan()
	},
	"als-solve-users": func(par int) *dataflow.Plan {
		return als.New(als.SyntheticRatings(12, 9, 2, 0.5, 0.01, 7),
			als.Config{Rank: 2, Parallelism: par}).HalfStepPlan(true)
	},
	"als-solve-items": func(par int) *dataflow.Plan {
		return als.New(als.SyntheticRatings(12, 9, 2, 0.5, 0.01, 7),
			als.Config{Rank: 2, Parallelism: par}).HalfStepPlan(false)
	},
	"vertexcentric-step": func(par int) *dataflow.Plan {
		g, _ := gen.Demo()
		prog := vertexcentric.Program[uint64, uint64]{
			Name: "vc-render",
			Init: func(v graph.VertexID) (uint64, []vertexcentric.Outbound[uint64]) {
				return uint64(v), nil
			},
			Compute: func(v graph.VertexID, st uint64, msgs []uint64, send func(graph.VertexID, uint64)) (uint64, bool) {
				return st, false
			},
			Compensate: func(v graph.VertexID) uint64 { return uint64(v) },
		}
		return vertexcentric.NewRunner(prog, g, par).StepPlan()
	},
}

func planNames() []string {
	names := make([]string, 0, len(planBuilders))
	for n := range planBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// renderPlan builds the named plan and renders it through planlint so
// the output carries any static-analysis diagnostics inline (annotated
// operators plus a trailing report in explain format, red nodes in
// dot).
func renderPlan(name, format string, par int) (string, error) {
	build, ok := planBuilders[name]
	if !ok {
		return "", fmt.Errorf("unknown plan %q (known: %v)", name, planNames())
	}
	p := build(par)
	switch format {
	case "explain":
		return planlint.Explain(p), nil
	case "dot":
		return planlint.Dot(p), nil
	default:
		return "", fmt.Errorf("unknown format %q (want explain or dot)", format)
	}
}
