// Package graph provides the graph substrate used by the iterative
// algorithms: an immutable compressed-sparse-row graph, a builder,
// edge-list I/O and the hash partitioning scheme that assigns vertices
// to state partitions.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// VertexID identifies a vertex. IDs are arbitrary uint64 values; they do
// not need to be dense or start at zero.
type VertexID uint64

// Edge is a directed edge with an optional weight. Undirected graphs
// store each input edge in both directions.
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Graph is an immutable graph in compressed-sparse-row form. Construct
// one with a Builder. For undirected graphs every edge is present in
// both directions, so Out* methods enumerate all neighbors.
type Graph struct {
	directed bool
	ids      []VertexID         // sorted vertex IDs
	lo       VertexID           // ids[0]
	index    map[VertexID]int32 // id -> dense position; nil when ids are lo..lo+n-1
	offsets  []int32            // CSR offsets, len = len(ids)+1
	targets  []VertexID
	weights  []float64 // parallel to targets; nil if all weights are 1
	numEdges int       // logical edges (undirected edges counted once)

	denseOnce sync.Once
	dense     *Dense // lazily built columnar view, see Dense()
}

// Directed reports whether the graph was built as a directed graph.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns the number of logical edges (an undirected edge
// counts once even though it is stored twice).
func (g *Graph) NumEdges() int { return g.numEdges }

// Vertices returns the sorted slice of vertex IDs. The caller must not
// modify it.
func (g *Graph) Vertices() []VertexID { return g.ids }

// setIDs installs the sorted, unique vertex IDs and the position
// lookup over them: none for one contiguous run of IDs, whose positions
// are offsets from the first, a map otherwise.
func (g *Graph) setIDs(ids []VertexID) {
	g.ids = ids
	if n := len(ids); n > 0 {
		g.lo = ids[0]
		if ids[n-1]-g.lo != VertexID(n-1) {
			g.index = make(map[VertexID]int32, n)
			for i, v := range ids {
				g.index[v] = int32(i)
			}
		}
	}
}

// pos returns the dense position of v.
func (g *Graph) pos(v VertexID) (int32, bool) {
	if g.index != nil {
		i, ok := g.index[v]
		return i, ok
	}
	if d := uint64(v - g.lo); d < uint64(len(g.ids)) {
		return int32(d), true
	}
	return 0, false
}

// HasVertex reports whether id is a vertex of the graph.
func (g *Graph) HasVertex(id VertexID) bool {
	_, ok := g.pos(id)
	return ok
}

// OutDegree returns the out-degree of v (total degree for undirected
// graphs). It returns 0 for unknown vertices.
func (g *Graph) OutDegree(v VertexID) int {
	i, ok := g.pos(v)
	if !ok {
		return 0
	}
	return int(g.offsets[i+1] - g.offsets[i])
}

// OutNeighbors returns the out-neighbors of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	i, ok := g.pos(v)
	if !ok {
		return nil
	}
	return g.targets[g.offsets[i]:g.offsets[i+1]]
}

// OutEdges calls fn for every out-edge of v with the target vertex and
// the edge weight.
func (g *Graph) OutEdges(v VertexID, fn func(dst VertexID, w float64)) {
	i, ok := g.pos(v)
	if !ok {
		return
	}
	for j := g.offsets[i]; j < g.offsets[i+1]; j++ {
		w := 1.0
		if g.weights != nil {
			w = g.weights[j]
		}
		fn(g.targets[j], w)
	}
}

// Edges calls fn for every stored edge. For undirected graphs fn sees
// each edge twice, once per direction, matching adjacency storage.
func (g *Graph) Edges(fn func(e Edge)) {
	for i, src := range g.ids {
		for j := g.offsets[i]; j < g.offsets[i+1]; j++ {
			w := 1.0
			if g.weights != nil {
				w = g.weights[j]
			}
			fn(Edge{Src: src, Dst: g.targets[j], Weight: w})
		}
	}
}

// Degrees returns a histogram-friendly slice with the out-degree of
// every vertex, ordered like Vertices().
func (g *Graph) Degrees() []int {
	d := make([]int, len(g.ids))
	for i := range g.ids {
		d[i] = int(g.offsets[i+1] - g.offsets[i])
	}
	return d
}

// Builder accumulates vertices and edges and produces an immutable
// Graph. Duplicate edges are kept (multi-edges are legal); duplicate
// vertices are merged.
type Builder struct {
	directed bool
	vertices []VertexID // as AddVertex registered them, duplicates included
	edges    []Edge
	weighted bool
}

// NewBuilder returns a Builder. If directed is false, AddEdge stores
// the edge in both directions.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// AddVertex registers an isolated vertex. Vertices referenced by edges
// are registered automatically.
func (b *Builder) AddVertex(v VertexID) *Builder {
	b.vertices = append(b.vertices, v)
	return b
}

// AddEdge adds an edge with weight 1.
func (b *Builder) AddEdge(src, dst VertexID) *Builder {
	return b.AddWeightedEdge(src, dst, 1)
}

// AddWeightedEdge adds an edge with an explicit weight.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float64) *Builder {
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
	if w != 1 {
		b.weighted = true
	}
	return b
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Reserve pre-sizes the builder for the given vertex and edge counts.
// Generators that know their output size up front call it so the edge
// list does not grow through repeated appends. The vertex count sizes
// only the list AddVertex appends to: vertices that appear as edge
// endpoints take no room there, so a caller that registers no vertex
// by AddVertex passes 0.
func (b *Builder) Reserve(vertices, edges int) *Builder {
	b.vertices = slices.Grow(b.vertices, max(0, vertices-len(b.vertices)))
	b.edges = slices.Grow(b.edges, max(0, edges-len(b.edges)))
	return b
}

// endpoints calls fn for every registered vertex and edge endpoint.
func (b *Builder) endpoints(fn func(VertexID)) {
	for _, v := range b.vertices {
		fn(v)
	}
	for _, e := range b.edges {
		fn(e.Src)
		fn(e.Dst)
	}
}

// vertexIDs returns the sorted, unique IDs of every registered vertex
// and edge endpoint. It marks them in a presence bitmap over [min, max]
// when that span is less than 16 times the endpoint count, so the
// bitmap takes under 2 bytes per endpoint, and collects them in a set
// otherwise, as for IDs scattered over a file's edge list.
func (b *Builder) vertexIDs() []VertexID {
	count := len(b.vertices) + 2*len(b.edges)
	if count == 0 {
		return []VertexID{}
	}
	lo, hi := ^VertexID(0), VertexID(0)
	b.endpoints(func(v VertexID) { lo, hi = min(lo, v), max(hi, v) })
	if uint64(hi-lo) >= 16*uint64(count) {
		set := make(map[VertexID]struct{})
		b.endpoints(func(v VertexID) { set[v] = struct{}{} })
		ids := make([]VertexID, 0, len(set))
		for v := range set {
			ids = append(ids, v)
		}
		slices.Sort(ids)
		return ids
	}
	seen := make([]uint64, (hi-lo)/64+1)
	b.endpoints(func(v VertexID) { seen[(v-lo)/64] |= 1 << ((v - lo) % 64) })
	n := 0
	for _, w := range seen {
		n += bits.OnesCount64(w)
	}
	ids := make([]VertexID, 0, n)
	for i, w := range seen {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, lo+VertexID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return ids
}

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{directed: b.directed, numEdges: len(b.edges)}
	g.setIDs(b.vertexIDs())
	pos := func(v VertexID) int32 { i, _ := g.pos(v); return i }

	stored := len(b.edges)
	if !b.directed {
		stored *= 2
	}
	n := len(g.ids)
	counts := make([]int32, n+1)
	for _, e := range b.edges {
		counts[pos(e.Src)+1]++
		if !b.directed {
			counts[pos(e.Dst)+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	g.offsets = counts
	g.targets = make([]VertexID, stored)
	if b.weighted {
		g.weights = make([]float64, stored)
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	place := func(src, dst VertexID, w float64) {
		i := pos(src)
		g.targets[cursor[i]] = dst
		if g.weights != nil {
			g.weights[cursor[i]] = w
		}
		cursor[i]++
	}
	for _, e := range b.edges {
		place(e.Src, e.Dst, e.Weight)
		if !b.directed {
			place(e.Dst, e.Src, e.Weight)
		}
	}
	return g
}

// String returns a short description such as "graph(directed, 16 vertices, 22 edges)".
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph(%s, %d vertices, %d edges)", kind, len(g.ids), g.numEdges)
}
