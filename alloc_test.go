package optiflow_test

import (
	"testing"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// TestAllocationCeilings fails when the superstep hot path starts
// allocating per message. gen.Twitter(2000, 1) has ~16k edges: a whole
// CC run sends ~93k messages in ~950 allocations and a steady-state
// PageRank superstep ~16k messages in ~60 (~75 under -race). The
// ceilings leave ~10x headroom for benign drift and still sit an order
// of magnitude below one allocation per message.
func TestAllocationCeilings(t *testing.T) {
	directed := gen.Twitter(2000, 1)
	und := graph.NewBuilder(false)
	directed.Edges(func(e graph.Edge) { und.AddEdge(e.Src, e.Dst) })
	undirected := und.Build()

	pr := pagerank.NewColumnar(directed, 4, 0.85, nil)
	for i := 0; i < 3; i++ { // reach steady state: pools warm, scratch sized
		if _, err := pr.Step(nil); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		ceiling float64
		op      func() error
	}{
		{"cc-whole-run", 10000, func() error {
			_, err := cc.Run(undirected, cc.Options{Parallelism: 4})
			return err
		}},
		{"pagerank-steady-superstep", 600, func() error {
			_, err := pr.Step(nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(5, func() {
				if err := tc.op(); err != nil {
					t.Error(err)
				}
			})
			t.Logf("%s: %.0f allocs/op (ceiling %.0f)", tc.name, got, tc.ceiling)
			if got > tc.ceiling {
				t.Fatalf("%s allocates %.0f allocs/op, ceiling is %.0f: the hot path is allocating per record again", tc.name, got, tc.ceiling)
			}
		})
	}
}
