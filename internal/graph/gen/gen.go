// Package gen generates the input graphs used by the demonstration and
// the benchmark harness: the small hand-crafted graph the paper
// visualises, and synthetic stand-ins for the Twitter follower snapshot
// (Cha et al., ICWSM'10) the paper uses as its "larger graph derived
// from real-world data". All generators are deterministic given a seed.
package gen

import (
	"math"
	"math/rand"
	"slices"

	"optiflow/internal/graph"
)

// Point is a 2-D layout coordinate for the demo visualisation.
type Point struct{ X, Y float64 }

// Layout maps vertices to fixed coordinates; only hand-crafted demo
// graphs carry one. Generated graphs use a computed circular layout.
type Layout map[graph.VertexID]Point

// Demo returns the small hand-crafted graph of the demonstration along
// with a fixed layout. Interpreted as undirected it has exactly three
// connected components (used by the Connected Components tab); the
// directed edge set is used as-is by the PageRank tab.
//
// Component A: 1..7 (a ring with chords), component B: 8..12 (a star
// plus a tail), component C: 13..16 (a square).
func Demo() (*graph.Graph, Layout) {
	b := graph.NewBuilder(false)
	edges := [][2]graph.VertexID{
		// Component A: ring 1-2-3-4-5-6-7-1 with chords 2-6 and 3-7.
		{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 1}, {2, 6}, {3, 7},
		// Component B: star centered at 8 with tail 12-11.
		{8, 9}, {8, 10}, {8, 11}, {11, 12},
		// Component C: square 13-14-15-16.
		{13, 14}, {14, 15}, {15, 16}, {16, 13},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	layout := Layout{
		1: {2, 0}, 2: {4, 1}, 3: {4, 3}, 4: {2, 4}, 5: {0, 4}, 6: {0, 2}, 7: {1, 1},
		8: {8, 1}, 9: {7, 0}, 10: {9, 0}, 11: {8, 3}, 12: {9, 4},
		13: {12, 0}, 14: {14, 0}, 15: {14, 2}, 16: {12, 2},
	}
	return b.Build(), layout
}

// DemoDirected returns the directed variant of the demo graph used by
// the PageRank tab: the demo edges oriented both ways within component
// A and C, and a directed star in component B, so that every vertex has
// at least one out-edge except 12 (a deliberate dangling vertex that
// exercises dangling-mass redistribution).
func DemoDirected() (*graph.Graph, Layout) {
	b := graph.NewBuilder(true)
	und, layout := Demo()
	und.Edges(func(e graph.Edge) { b.AddEdge(e.Src, e.Dst) })
	// Make vertex 12 dangling: drop its out-edge by rebuilding without it.
	b2 := graph.NewBuilder(true)
	tmp := b.Build()
	tmp.Edges(func(e graph.Edge) {
		if e.Src != 12 {
			b2.AddEdge(e.Src, e.Dst)
		}
	})
	b2.AddVertex(12)
	return b2.Build(), layout
}

// BarabasiAlbert generates a scale-free graph by preferential
// attachment: each new vertex attaches m edges to existing vertices
// with probability proportional to their degree. The result has a
// heavy-tailed degree distribution and a single giant component — the
// properties of the Twitter snapshot that the demonstration relies on.
func BarabasiAlbert(n, m int, seed int64, directed bool) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	rng := rand.New(rand.NewSource(seed))
	// The edge count is known up front: the seed clique contributes
	// m(m+1)/2 edges and every later vertex attaches exactly m more.
	numEdges := m*(m+1)/2 + (n-m-1)*m
	b := graph.NewBuilder(directed)
	b.Reserve(0, numEdges)
	// repeated holds one entry per edge endpoint, which makes sampling
	// proportional to degree a uniform pick.
	repeated := make([]graph.VertexID, 0, 2*numEdges)
	// Seed clique over the first m+1 vertices.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			u, v := graph.VertexID(i), graph.VertexID(j)
			b.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	targets := make([]graph.VertexID, 0, m)
	for i := m + 1; i < n; i++ {
		v := graph.VertexID(i)
		targets = targets[:0]
		for len(targets) < m {
			t := repeated[rng.Intn(len(repeated))]
			if t != v && !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(v, t)
			repeated = append(repeated, v, t)
		}
	}
	return b.Build()
}

// RMAT generates a recursive-matrix graph (Chakrabarti et al.) with
// 2^scale vertices and edgeFactor*2^scale edges, using the standard
// (a,b,c,d) quadrant probabilities. RMAT graphs mimic the skewed
// structure of social networks; (0.57,0.19,0.19,0.05) are the Graph500
// defaults.
func RMAT(scale, edgeFactor int, a, b, c, d float64, seed int64, directed bool) *graph.Graph {
	n := 1 << scale
	edges := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	total := a + b + c + d
	a, b, c = a/total, b/total, c/total
	bld := graph.NewBuilder(directed)
	bld.Reserve(n, edges)
	for i := 0; i < n; i++ {
		bld.AddVertex(graph.VertexID(i))
	}
	for e := 0; e < edges; e++ {
		var src, dst int
		half := n
		for half > 1 {
			half /= 2
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no change
			case r < a+b:
				dst += half
			case r < a+b+c:
				src += half
			default:
				src += half
				dst += half
			}
		}
		if src == dst {
			dst = (dst + 1) % n
		}
		bld.AddEdge(graph.VertexID(src), graph.VertexID(dst))
	}
	return bld.Build()
}

// ErdosRenyi generates a G(n, p) random graph.
func ErdosRenyi(n int, p float64, seed int64, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VertexID(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if !directed && j <= i {
				continue
			}
			if rng.Float64() < p {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
	}
	return b.Build()
}

// Grid generates a rows x cols lattice. Grids converge slowly under
// label diffusion, which makes failure effects easy to observe.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(false)
	b.Reserve(0, rows*(cols-1)+cols*(rows-1))
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Chain generates a path of n vertices — the worst case for label
// propagation (n-1 iterations to converge).
func Chain(n int) *graph.Graph {
	b := graph.NewBuilder(false)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	if n == 1 {
		b.AddVertex(0)
	}
	return b.Build()
}

// Star generates a star with n leaves attached to hub vertex 0.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(false)
	for i := 1; i <= n; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	return b.Build()
}

// Components generates k disjoint Erdős–Rényi blobs of size n each,
// giving a graph with exactly k connected components (each blob is made
// connected by a backbone chain).
func Components(k, n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(false)
	for c := 0; c < k; c++ {
		base := graph.VertexID(c * n)
		for i := 0; i+1 < n; i++ {
			b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(i+1))
		}
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if rng.Float64() < p {
					b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(j))
				}
			}
		}
		if n == 1 {
			b.AddVertex(base)
		}
	}
	return b.Build()
}

// Twitter generates the stand-in for the paper's Twitter follower
// snapshot: a directed Barabási–Albert graph. See DESIGN.md §4 for the
// substitution rationale.
func Twitter(n int, seed int64) *graph.Graph {
	return BarabasiAlbert(n, 8, seed, true)
}

// CircularLayout computes a layout placing vertices on a circle, used
// when visualising generated graphs that carry no hand-crafted layout.
func CircularLayout(g *graph.Graph, radius float64) Layout {
	l := make(Layout, g.NumVertices())
	n := float64(g.NumVertices())
	for i, v := range g.Vertices() {
		angle := 2 * math.Pi * float64(i) / n
		l[v] = Point{X: radius + radius*math.Cos(angle), Y: radius/2 + radius/2*math.Sin(angle)}
	}
	return l
}
