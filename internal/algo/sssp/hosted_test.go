package sssp

import (
	"testing"

	"optiflow/internal/algo/minfold"
	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// TestHostedAbortAfterRecycledCommits aborts and replays attempts of
// the min-fold job hosted as SSSP — a priming step, steps the driver
// aborts after they succeeded, a fold that met a misrouted row — after
// commits whose revert captures were recycled, and holds every step's
// columns and partition views to a twin run that never aborts. The
// graph is a grid with edge weights that differ by direction, so the
// distances from its corner improve over more than twenty supersteps
// and most vertices start inactive.
func TestHostedAbortAfterRecycledCommits(t *testing.T) {
	b := graph.NewBuilder(true)
	gen.Grid(12, 12).Edges(func(e graph.Edge) {
		b.AddWeightedEdge(e.Src, e.Dst, float64(1+(7*e.Src+e.Dst)%5))
	})
	g := b.Build()
	const nparts = 4
	d := g.Dense()
	pt := d.Partitioning(nparts)
	owner := []int{0, 1, 0, 1}
	build := func() (hosts [2]hostedtest.Host) {
		for w := range hosts {
			parts := []int{w, w + 2}
			offsets, targets, weights := d.Restrict(pt, parts)
			pg, err := graph.FromCSR(g.Vertices(), offsets, targets, weights)
			if err != nil {
				t.Fatalf("FromCSR: %v", err)
			}
			hosts[w] = minfold.NewHosted(kernel(g, g.Vertices()[0]), pg, nparts, parts)
		}
		return hosts
	}
	if err := hostedtest.AbortTwin(build, owner, pt.PartOf, 14); err != nil {
		t.Fatal(err)
	}
}
