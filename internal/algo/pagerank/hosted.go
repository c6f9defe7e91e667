package pagerank

import (
	"fmt"

	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/state"
)

// Hosted is the PageRank job as a worker process hosts it: the columnar
// job of NewColumnar — same ColStep and per-vertex 1/outdeg, same rank
// store, same apply — restricted to the partitions the process owns, with the
// superstep cut at the exchange (exec.ColHosted, whose Commit and Abort
// end an attempt). A hosted step folds the contributions the previous
// step's expansion produced into new ranks, then expands those; a
// priming step only expands. The scalars the in-process fold computes
// globally are partial sums here: a step reports its
// partitions' dangling mass and L1 delta, and is told the combined
// dangling mass of the ranks its incoming contributions were expanded
// from.
type Hosted struct {
	*exec.ColHosted[float64]
	c *PR
	// ranks is the revert capture of the current attempt, retaken for
	// every attempt (Recapture); revert puts it back.
	ranks  *state.DenseStore[float64]
	revert func()
}

// NewHosted builds the job over g — the full graph, or one restricted
// to the hosted partitions' out-edges (graph.FromCSR) — for the listed
// partitions out of nparts.
func NewHosted(g *graph.Graph, nparts int, damping float64, parts []int) *Hosted {
	c := newPR(g, nparts, damping, append([]int{}, parts...))
	h := &Hosted{ColHosted: exec.NewColHosted(c.engine, c.step, c.parts), c: c}
	h.revert = func() { c.ranks.Revert(h.ranks) }
	return h
}

// Step runs one hosted step attempt, held uncommitted by a
// copy-on-write capture of the ranks, whose previous arrays apply
// writes the new ranks into; dangling is the combined dangling mass the
// previous step's hosts reported.
func (h *Hosted) Step(prime bool, dangling float64, remote []exec.HostedCols) (out exec.HostedOut, err error) {
	c := h.c
	h.Abort() // capture committed state, not an abandoned attempt's
	h.ranks = c.ranks.Recapture(h.ranks)
	h.Begin(h.revert)
	if !prime {
		c.beginFold(dangling)
		if err = h.Fold(remote); err == nil {
			out.L1, out.Folded = c.l1, true
			out.Updates = int64(c.ranks.Len())
		}
	}
	if err == nil {
		out.Dangling = c.danglingMass()
		err = h.Expand(&out)
	}
	if err != nil {
		h.Abort()
		return out, fmt.Errorf("pagerank: superstep: %w", err)
	}
	return out, nil
}

// Reinit puts the listed partitions back into superstep-zero state.
func (h *Hosted) Reinit(parts []int) {
	h.Abort()
	h.c.seed(parts)
}

// Compensate is this host's share of fix-ranks (PR.redistribute) after
// the partitions lost were replaced. It reports the rank mass of the
// hosted partitions that survived; the driver adds the hosts' up and
// passes the total as surviving to the hosts of the lost partitions,
// which fill those in fill with their share of what is missing and
// expand them — only them — into the committed columns.
func (h *Hosted) Compensate(lost, fill []int, surviving float64) (out exec.HostedOut, mass float64, err error) {
	c := h.c
	if err = h.Unheld(fill); err != nil {
		return out, 0, fmt.Errorf("pagerank: compensation: %w", err)
	}
	h.Abort()
	c.ClearPartitions(lost)
	mass = c.RankSum()
	c.redistribute(lost, fill, surviving)
	out.Dangling = c.danglingMass()
	if err = h.Reexpand(fill, &out); err != nil {
		return out, 0, fmt.Errorf("pagerank: compensation: %w", err)
	}
	return out, mass, nil
}

// AppendPartition appends partition p's committed ranks to dst as a
// DenseStore partition view (an attempt still in flight was abandoned).
func (h *Hosted) AppendPartition(dst []byte, p int) []byte {
	h.Abort()
	return h.c.ranks.AppendPartitionBytes(dst, p, colbytes.AppendF64Vals)
}

// RestorePartition replaces partition p's ranks from a view written by
// AppendPartition.
func (h *Hosted) RestorePartition(p int, view []byte) error {
	h.Abort()
	return h.c.ranks.RestorePartitionView(p, view, (*colbytes.Reader).F64Vals)
}

// RankVector returns the rank of every vertex of the partitions this
// job holds state for.
func (h *Hosted) RankVector() map[graph.VertexID]float64 { return h.c.RankVector() }
