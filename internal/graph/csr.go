package graph

import "fmt"

// Restrict returns the CSR of the graph with out-edges kept only for
// the vertices of the listed partitions: offsets over every vertex
// (rows of the others empty), targets as dense indices, weights nil if
// all are 1 — the adjacency a process hosting just those partitions
// computes over. FromCSR turns it back into a graph on the other side.
func (d *Dense) Restrict(pt *Partitioning, parts []int) (offsets, targets []int32, weights []float64) {
	offsets = make([]int32, d.NumVertices()+1)
	for _, p := range parts {
		for _, idx := range pt.Owned[p] {
			offsets[idx+1] = d.Degree(idx)
		}
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	targets = make([]int32, offsets[len(offsets)-1])
	if d.Weights != nil {
		weights = make([]float64, len(targets))
	}
	for _, p := range parts {
		for _, idx := range pt.Owned[p] {
			lo, hi := d.Offsets[idx], d.Offsets[idx+1]
			copy(targets[offsets[idx]:], d.Targets[lo:hi])
			if weights != nil {
				copy(weights[offsets[idx]:], d.Weights[lo:hi])
			}
		}
	}
	return offsets, targets, weights
}

// FromCSR builds a directed graph from its columnar form: ids is the
// vertex set, strictly ascending — position is dense index, so indices
// and hash partitioning agree with the process that produced the
// arrays — and offsets/targets/weights are as in Dense. The arrays come
// from another process and are validated, not trusted; the graph
// retains them.
func FromCSR(ids []VertexID, offsets, targets []int32, weights []float64) (*Graph, error) {
	nv := len(ids)
	for i := 1; i < nv; i++ {
		if ids[i-1] >= ids[i] {
			return nil, fmt.Errorf("graph: vertex IDs not strictly ascending at index %d", i)
		}
	}
	if len(offsets) != nv+1 || offsets[0] != 0 || int(offsets[nv]) != len(targets) {
		return nil, fmt.Errorf("graph: CSR offsets do not span %d vertices and %d targets", nv, len(targets))
	}
	for i := 0; i < nv; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at vertex index %d", i)
		}
	}
	if weights != nil && len(weights) != len(targets) {
		return nil, fmt.Errorf("graph: %d weights for %d targets", len(weights), len(targets))
	}
	g := &Graph{
		directed: true,
		offsets:  offsets,
		targets:  make([]VertexID, len(targets)),
		weights:  weights,
		numEdges: len(targets),
	}
	g.setIDs(ids)
	for j, t := range targets {
		if t < 0 || int(t) >= nv {
			return nil, fmt.Errorf("graph: target index %d outside [0,%d)", t, nv)
		}
		g.targets[j] = ids[t]
	}
	// The targets arrived as dense indices already: install the columnar
	// view directly instead of translating them back.
	g.denseOnce.Do(func() {
		g.dense = &Dense{g: g, Offsets: offsets, Weights: weights, Targets: targets, parts: make(map[int]*Partitioning)}
	})
	return g, nil
}
