package minfold

import (
	"fmt"

	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/state"
)

// Hosted is the min-fold job as a worker process hosts it: the job of
// New — same ColStep, same value store and workset, same seed code —
// restricted to the partitions the process owns, with the superstep cut
// at the exchange (exec.ColHosted, whose Commit and Abort end an
// attempt). A hosted step folds the candidates the previous step's
// expansion produced, then expands the vertices it lowered; a priming
// step skips the fold and re-announces every hosted value instead,
// which is how a job starts and how it resumes after a rollback, a
// restart or a migration.
type Hosted[V exec.ColValue] struct {
	*exec.ColHosted[V]
	j *Job[V]
	// vals is the revert capture of the current attempt's values,
	// retaken for every attempt (Recapture); revert puts it back.
	vals   *state.DenseStore[V]
	revert func()
}

// NewHosted builds the job over g — the full graph, or one restricted to
// the hosted partitions' out-edges (graph.FromCSR) — for the listed
// partitions out of nparts.
func NewHosted[V exec.ColValue](k Kernel[V], g *graph.Graph, nparts int, parts []int) *Hosted[V] {
	j := newJob(k, g, nparts, append([]int{}, parts...))
	h := &Hosted[V]{ColHosted: exec.NewColHosted(j.engine, j.step, j.parts), j: j}
	h.revert = func() {
		j.vals.Revert(h.vals)
		j.next.ClearAll()
		clear(j.updates)
	}
	return h
}

// Job returns the job whose state the host holds.
func (h *Hosted[V]) Job() *Job[V] { return h.j }

// Step runs one hosted step attempt, held uncommitted by a copy-on-write
// capture of the values, whose previous arrays the fold writes into.
// The workset needs no capture: the one a step starts with is what the
// previous step expanded, which nothing reads again — a folding step
// swaps it into next and clears it, a priming step clears it — so an
// attempt is undone by clearing next, and the workset and next keep
// reusing their arrays. A min-fold job has no global scalars; the
// dangling argument exists for the interface PageRank shares.
func (h *Hosted[V]) Step(prime bool, _ float64, remote []exec.HostedCols) (out exec.HostedOut, err error) {
	j := h.j
	h.Abort() // capture committed state, not an abandoned attempt's
	h.vals = j.vals.Recapture(h.vals)
	h.Begin(h.revert)
	if prime {
		j.reactivate()
	} else if err = h.Fold(remote); err == nil {
		out.Updates, out.Folded = j.advance(), true
	}
	if err == nil {
		err = h.Expand(&out)
	}
	if err != nil {
		h.Abort()
		return out, fmt.Errorf("%s: superstep: %w", j.name, err)
	}
	return out, nil
}

// Reinit puts the listed partitions back into superstep-zero state.
func (h *Hosted[V]) Reinit(parts []int) {
	h.Abort()
	h.j.ClearPartitions(parts)
	h.j.seed(parts)
}

// Compensate is this host's share of fix-components (Job.compensate)
// after the partitions lost were replaced: those in fill, hosted here
// now, restart from their initial values, and the surviving hosted
// vertices with an out-edge into a lost partition send their values
// again. Only those rows are expanded, into the committed columns; what
// the last step sent stays. The scalars are PageRank's.
func (h *Hosted[V]) Compensate(lost, fill []int, _ float64) (out exec.HostedOut, _ float64, err error) {
	j := h.j
	if err = h.Unheld(fill); err == nil {
		h.Abort()
		// The workset is what the last step expanded already.
		j.workset.ClearAll()
		j.compensate(lost, fill)
		err = h.Reexpand(j.parts, &out)
	}
	if err != nil {
		return out, 0, fmt.Errorf("%s: compensation: %w", j.name, err)
	}
	return out, 0, nil
}

// AppendPartition appends partition p's committed values to dst as a
// DenseStore partition view (an attempt still in flight was abandoned).
func (h *Hosted[V]) AppendPartition(dst []byte, p int) []byte {
	h.Abort()
	return h.j.vals.AppendPartitionBytes(dst, p, exec.AppendVals[V])
}

// RestorePartition replaces partition p's values from a view written by
// AppendPartition.
func (h *Hosted[V]) RestorePartition(p int, view []byte) error {
	h.Abort()
	return h.j.vals.RestorePartitionView(p, view, exec.ReadVals[V])
}
