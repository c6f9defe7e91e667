package sssp

import (
	"testing"

	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/vertexcentric"
)

// BenchmarkRun times a whole columnar SSSP run — float64 distances
// under the min fold — from one corner of a 64×64 grid whose edge
// weights differ by direction, over 4 partitions.
func BenchmarkRun(b *testing.B) {
	gb := graph.NewBuilder(true)
	gen.Grid(64, 64).Edges(func(e graph.Edge) {
		gb.AddWeightedEdge(e.Src, e.Dst, float64(1+(7*e.Src+e.Dst)%5))
	})
	g := gb.Build()
	src := g.Vertices()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(g, src, vertexcentric.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
