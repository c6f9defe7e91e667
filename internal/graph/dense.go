package graph

import "sync"

// Dense is the graph's compressed-sparse-row adjacency exposed with
// dense int32 vertex indexing: vertex i is the i-th smallest VertexID,
// and Targets holds dense indices rather than raw IDs. The columnar
// execution path iterates edges as contiguous slices of Targets with no
// map lookups on the hot path. A Dense view is built once per graph and
// cached; all slices alias immutable storage and must not be modified.
type Dense struct {
	g *Graph
	// Offsets has len NumVertices+1; the out-edges of dense vertex i
	// occupy Targets[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	// Targets holds the dense index of each edge's destination.
	Targets []int32
	// Weights is parallel to Targets; nil if all weights are 1.
	Weights []float64

	mu    sync.Mutex
	parts map[int]*Partitioning
}

// Dense returns the dense CSR view of the graph, building it on first
// use. The translation of targets from VertexIDs to dense indices is
// the only O(edges) lookup pass, one subtraction per edge when the IDs
// are contiguous; afterwards edge iteration is pure array arithmetic.
func (g *Graph) Dense() *Dense {
	g.denseOnce.Do(func() {
		d := &Dense{
			g:       g,
			Offsets: g.offsets,
			Weights: g.weights,
			Targets: make([]int32, len(g.targets)),
			parts:   make(map[int]*Partitioning),
		}
		for j, t := range g.targets {
			d.Targets[j], _ = g.pos(t)
		}
		g.dense = d
	})
	return g.dense
}

// Graph returns the graph this view was built from.
func (d *Dense) Graph() *Graph { return d.g }

// NumVertices returns the number of vertices.
func (d *Dense) NumVertices() int { return len(d.g.ids) }

// IDs returns the sorted vertex IDs; dense index i corresponds to
// IDs()[i]. The caller must not modify the slice.
func (d *Dense) IDs() []VertexID { return d.g.ids }

// IndexOf returns the dense index of vertex v.
func (d *Dense) IndexOf(v VertexID) (int32, bool) {
	return d.g.pos(v)
}

// Degree returns the out-degree of dense vertex i.
func (d *Dense) Degree(i int32) int32 { return d.Offsets[i+1] - d.Offsets[i] }

// Partitioning describes how the graph's vertices map onto n state
// partitions, precomputed as flat arrays so the columnar exchange can
// route a message with one array load instead of hashing. It agrees
// exactly with graph.Partition / PartitionVertices.
type Partitioning struct {
	N int
	// PartOf maps dense vertex index -> owning partition.
	PartOf []int32
	// Owned lists each partition's dense vertex indices in ascending
	// order (equivalently: ascending VertexID, since dense order is ID
	// order).
	Owned [][]int32
	// Slot maps dense vertex index -> its position within
	// Owned[PartOf[i]], the vertex's local column slot in dense state.
	Slot []int32
}

// Partitioning returns the cached vertex partitioning for n partitions,
// computing it on first use.
func (d *Dense) Partitioning(n int) *Partitioning {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if pt, ok := d.parts[n]; ok {
		return pt
	}
	nv := d.NumVertices()
	pt := &Partitioning{
		N:      n,
		PartOf: make([]int32, nv),
		Owned:  make([][]int32, n),
		Slot:   make([]int32, nv),
	}
	sizes := make([]int32, n)
	for i, v := range d.g.ids {
		p := int32(Partition(v, n))
		pt.PartOf[i] = p
		sizes[p]++
	}
	for p := range pt.Owned {
		pt.Owned[p] = make([]int32, 0, sizes[p])
	}
	for i := range pt.PartOf {
		p := pt.PartOf[i]
		pt.Slot[i] = int32(len(pt.Owned[p]))
		pt.Owned[p] = append(pt.Owned[p], int32(i))
	}
	d.parts[n] = pt
	return pt
}
