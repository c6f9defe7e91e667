package cc

import (
	"optiflow/internal/algo/minfold"
	"optiflow/internal/graph"
)

// Hosted is the Connected Components job as a worker process hosts it:
// the job of NewColumnar restricted to the partitions the process owns,
// with the superstep cut at the exchange (minfold.Hosted).
type Hosted struct {
	*minfold.Hosted[uint64]
}

// NewHosted builds the job over g — the full graph, or one restricted
// to the hosted partitions' out-edges (graph.FromCSR) — for the listed
// partitions out of nparts.
func NewHosted(g *graph.Graph, nparts int, parts []int) *Hosted {
	return &Hosted{minfold.NewHosted(kernel(g), g, nparts, parts)}
}

// Components returns the label of every vertex of the partitions this
// job holds state for.
func (h *Hosted) Components() map[graph.VertexID]graph.VertexID { return components(h.Job()) }
