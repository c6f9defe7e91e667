package cc

import (
	"fmt"

	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// Hosted is the Connected Components job as a worker process hosts it:
// the columnar job of NewColumnar — same ColStep, same label store and
// workset, same seed code — restricted to the partitions the process
// owns, with the superstep cut at the exchange (exec.ColHosted, whose
// Commit and Abort end an attempt). A hosted step folds the candidate
// labels the previous step's expansion produced, then expands the
// vertices it lowered; a priming step skips the fold and re-announces
// every hosted label instead, which is how a job starts and how it
// resumes after a rollback, a restart or a migration.
type Hosted struct {
	*exec.ColHosted[uint64]
	c *CC
}

// NewHosted builds the job over g — the full graph, or one restricted
// to the hosted partitions' out-edges (graph.FromCSR) — for the listed
// partitions out of nparts.
func NewHosted(g *graph.Graph, nparts int, parts []int) *Hosted {
	c := newCC(g, nparts, append([]int{}, parts...))
	c.step.LocalFold = true
	return &Hosted{ColHosted: exec.NewColHosted(c.engine, c.step, c.parts), c: c}
}

// Step runs one hosted step attempt, held uncommitted by copy-on-write
// captures of the labels and the workset. CC has no global scalars; the
// dangling argument exists for the interface PageRank shares.
func (h *Hosted) Step(prime bool, _ float64, remote []exec.HostedCols) (out exec.HostedOut, err error) {
	c := h.c
	h.Abort() // capture committed state, not an abandoned attempt's
	labels, workset := c.labels.SnapshotShared(), c.workset.SnapshotShared()
	h.Begin(func() {
		c.labels, c.workset = labels, workset
		c.next.ClearAll()
		c.clearPending()
	})
	if prime {
		c.reactivate()
	} else if err = h.Fold(remote); err == nil {
		out.Updates, out.Folded = c.advance(), true
	}
	if err == nil {
		err = h.Expand(&out)
	}
	if err != nil {
		h.Abort()
		return out, fmt.Errorf("cc: superstep: %w", err)
	}
	return out, nil
}

// Reinit puts the listed partitions back into superstep-zero state.
func (h *Hosted) Reinit(parts []int) {
	h.Abort()
	h.c.ClearPartitions(parts)
	h.c.seed(parts)
}

// Compensate is this host's share of fix-components (CC.compensate)
// after the partitions lost were replaced: those in fill, hosted here
// now, restart from their initial labels, and the surviving hosted
// vertices with an out-edge into a lost partition send their labels
// again. Only those rows are expanded, into the committed columns; what
// the last step sent stays. The scalars are PageRank's.
func (h *Hosted) Compensate(lost, fill []int, _ float64) (out exec.HostedOut, _ float64, err error) {
	c := h.c
	if err = h.Unheld(fill); err == nil {
		h.Abort()
		// The workset is what the last step expanded already.
		c.workset.ClearAll()
		c.compensate(lost, fill)
		err = h.Reexpand(c.parts, &out)
	}
	if err != nil {
		return out, 0, fmt.Errorf("cc: compensation: %w", err)
	}
	return out, 0, nil
}

// AppendPartition appends partition p's committed labels to dst as a
// DenseStore partition view (an attempt still in flight was abandoned).
func (h *Hosted) AppendPartition(dst []byte, p int) []byte {
	h.Abort()
	return h.c.labels.AppendPartitionBytes(dst, p, colbytes.AppendU64)
}

// RestorePartition replaces partition p's labels from a view written by
// AppendPartition.
func (h *Hosted) RestorePartition(p int, view []byte) error {
	h.Abort()
	return h.c.labels.RestorePartitionView(p, view, (*colbytes.Reader).U64)
}

// Components returns the label of every vertex of the partitions this
// job holds state for.
func (h *Hosted) Components() map[graph.VertexID]graph.VertexID { return h.c.Components() }
