package gen

import (
	"testing"

	"optiflow/internal/graph"
)

// benchLoad times what every ledger round pays before its first
// superstep: generate the graph, build its dense CSR view and partition
// it four ways.
func benchLoad(b *testing.B, gen func() *graph.Graph) {
	b.ReportAllocs()
	for b.Loop() {
		gen().Dense().Partitioning(4)
	}
}

// BenchmarkLoadTwitter is the pr-twitter workloads' graph: Twitter(4000).
func BenchmarkLoadTwitter(b *testing.B) {
	benchLoad(b, func() *graph.Graph { return Twitter(4000, 20150531) })
}

// BenchmarkLoadGrid is the cc-grid workloads' graph: Grid(48,48).
func BenchmarkLoadGrid(b *testing.B) {
	benchLoad(b, func() *graph.Graph { return Grid(48, 48) })
}

// BenchmarkLoadSparse loads Twitter(4000)'s edges with every ID
// multiplied by a large odd constant, so the IDs scatter over the whole
// uint64 range as in a SNAP or KONECT edge list: the Builder and the
// graph take their sparse-ID path.
func BenchmarkLoadSparse(b *testing.B) {
	var edges []graph.Edge
	Twitter(4000, 20150531).Edges(func(e graph.Edge) {
		e.Src *= 0x9e3779b97f4a7c15
		e.Dst *= 0x9e3779b97f4a7c15
		edges = append(edges, e)
	})
	benchLoad(b, func() *graph.Graph {
		bld := graph.NewBuilder(true).Reserve(0, len(edges))
		for _, e := range edges {
			bld.AddEdge(e.Src, e.Dst)
		}
		return bld.Build()
	})
}
