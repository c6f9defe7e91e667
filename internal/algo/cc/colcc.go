// Columnar Connected Components: the same delta iteration as cc.go, but
// executed on the typed columnar superstep engine. Labels live in a
// dense per-partition column store, the workset is two parallel
// (index, label) columns, and the superstep is one exec.ColStep —
// ExpandCopy over the CSR adjacency folded with min — so a converged
// steady-state superstep allocates nothing. Recovery semantics are
// identical to the boxed path: same compensation function, same pending
// re-activation log, and label snapshots use the same wire format.
package cc

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"optiflow/internal/checkpoint"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/state"
)

// colCC holds the columnar internals of a CC job. It is driven through
// the owning CC's methods, never directly.
type colCC struct {
	d  *graph.Dense
	pt *graph.Partitioning
	// parts lists the partitions this process computes: all in-process,
	// the hosted subset in a worker (see Hosted).
	parts []int

	engine *exec.ColEngine[uint64]
	step   *exec.ColStep[uint64] // built once, reused every superstep

	labels  *state.DenseStore[uint64]
	workset *state.ColWorkset[uint64]
	next    *state.ColWorkset[uint64]

	// pending mirrors CC.pending: the in-place label writes of the
	// attempt currently executing, as columns. On abort they merge back
	// into the current workset so lowered labels re-propagate.
	pendingIdx [][]int32
	pendingVal [][]uint64

	// updates counts label changes per partition for step stats; each
	// fold task writes only its own slot.
	updates []int64
}

// newColCC builds the columnar job over the listed partitions of g
// (nil means all of them) and seeds their superstep-zero state.
func newColCC(g *graph.Graph, parallelism int, parts []int) *colCC {
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	if parts == nil {
		for p := 0; p < parallelism; p++ {
			parts = append(parts, p)
		}
	}
	c := &colCC{
		d:          d,
		pt:         pt,
		parts:      parts,
		engine:     &exec.ColEngine[uint64]{Parallelism: parallelism},
		labels:     state.NewDenseStore[uint64]("labels", d, pt),
		workset:    state.NewColWorkset[uint64]("workset", parallelism),
		next:       state.NewColWorkset[uint64]("next-workset", parallelism),
		pendingIdx: make([][]int32, parallelism),
		pendingVal: make([][]uint64, parallelism),
		updates:    make([]int64, parallelism),
	}
	c.step = &exec.ColStep[uint64]{
		Adj:    d,
		Parts:  pt,
		Expand: exec.ExpandCopy,
		Fold:   exec.FoldMin,
		Source: c.source,
		Apply:  c.apply,
	}
	c.seedInitial()
	return c
}

func (c *colCC) seedInitial() { c.seed(c.parts) }

// seed puts the listed partitions into superstep-zero state.
func (c *colCC) seed(parts []int) {
	ids := c.d.IDs()
	for _, p := range parts {
		for slot, idx := range c.pt.Owned[p] {
			label := uint64(ids[idx])
			c.labels.SetSlot(p, int32(slot), label)
			c.workset.Add(p, idx, label)
		}
	}
}

// reactivate makes every vertex of this process's partitions active
// with its current label: the exchange restarts from state alone.
func (c *colCC) reactivate() {
	for _, p := range c.parts {
		c.workset.ClearPartition(p)
		for slot, idx := range c.pt.Owned[p] {
			if l, ok := c.labels.GetSlot(p, int32(slot)); ok {
				c.workset.Add(p, idx, l)
			}
		}
	}
}

// source streams partition part's workset columns into the engine.
func (c *colCC) source(part int, emit func(src int32, val uint64) bool) error {
	idx, val := c.workset.Cols(part)
	for i, src := range idx {
		if !emit(src, val[i]) {
			return nil
		}
	}
	return nil
}

// apply is the label-update join of Fig. 1a on columns: compare each
// folded candidate to the current label, lower it in place, log the
// write to the pending column and activate the vertex in the next
// workset. The engine routes updates to the partition owning them, so
// the per-partition appends are race-free.
func (c *colCC) apply(part int, dst exec.KeyCol, val exec.ValCol[uint64]) error {
	slot := c.pt.Slot
	for i, d := range dst {
		cand := val[i]
		s := slot[d]
		cur, ok := c.labels.GetSlot(part, s)
		if ok && cur <= cand {
			continue
		}
		c.labels.SetSlot(part, s, cand)
		c.pendingIdx[part] = append(c.pendingIdx[part], d)
		c.pendingVal[part] = append(c.pendingVal[part], cand)
		c.next.Add(part, d, cand)
		c.updates[part]++
	}
	return nil
}

// runStep executes one columnar superstep and returns (messages,
// updates) for the step stats.
func (c *colCC) runStep(fault *exec.FaultInjection) (int64, int64, error) {
	stats, err := c.engine.Run(c.step, fault)
	if err != nil {
		c.abortAttempt()
		return 0, 0, fmt.Errorf("cc: superstep: %w", err)
	}
	return stats.Messages, c.advance(), nil
}

// advance commits a completed fold: the vertices it lowered become the
// workset the next expansion streams. It returns the update count.
func (c *colCC) advance() int64 {
	var updates int64
	for _, n := range c.updates {
		updates += n
	}
	c.clearPending()
	c.workset.Swap(c.next)
	c.next.ClearAll()
	return updates
}

func (c *colCC) abortAttempt() {
	for p, idx := range c.pendingIdx {
		vals := c.pendingVal[p]
		for i, d := range idx {
			c.workset.Add(p, d, vals[i])
		}
	}
	c.clearPending()
	c.next.ClearAll()
}

// clearPending forgets the attempt's write log and update counts.
func (c *colCC) clearPending() {
	for p := range c.pendingIdx {
		c.pendingIdx[p] = nil
		c.pendingVal[p] = nil
		c.updates[p] = 0
	}
}

func (c *colCC) worksetLen() int { return c.workset.Len() }

func (c *colCC) components() map[graph.VertexID]graph.VertexID {
	out := make(map[graph.VertexID]graph.VertexID, c.d.NumVertices())
	c.labels.Range(func(k uint64, v uint64) bool {
		out[graph.VertexID(k)] = graph.VertexID(v)
		return true
	})
	return out
}

func (c *colCC) convergedCount(truth map[graph.VertexID]graph.VertexID) int {
	n := 0
	c.labels.Range(func(k uint64, v uint64) bool {
		if truth[graph.VertexID(k)] == graph.VertexID(v) {
			n++
		}
		return true
	})
	return n
}

func (c *colCC) snapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodeTo(enc); err != nil {
		return err
	}
	return c.workset.EncodeTo(enc)
}

func (c *colCC) restoreFrom(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := c.labels.DecodeFrom(dec); err != nil {
		return err
	}
	if err := c.workset.DecodeFrom(dec); err != nil {
		return err
	}
	c.next.ClearAll()
	return nil
}

func (c *colCC) clearPartitions(parts []int) {
	for _, p := range parts {
		c.labels.ClearPartition(p)
		c.workset.ClearPartition(p)
	}
}

// compensate is fix-components on the dense view: restore lost vertices
// to their initial labels and re-activate them plus their surviving
// neighbors, walking neighbors as contiguous CSR ranges.
func (c *colCC) compensate(lost []int) error {
	lostSet := make([]bool, c.pt.N)
	for _, p := range lost {
		lostSet[p] = true
	}
	c.seed(lost)
	seeded := make([]bool, c.d.NumVertices())
	offsets, targets := c.d.Offsets, c.d.Targets
	for _, p := range lost {
		for _, idx := range c.pt.Owned[p] {
			for j := offsets[idx]; j < offsets[idx+1]; j++ {
				n := targets[j]
				np := c.pt.PartOf[n]
				if lostSet[np] || seeded[n] {
					continue
				}
				seeded[n] = true
				if l, ok := c.labels.GetSlot(int(np), c.pt.Slot[n]); ok {
					c.workset.Add(int(np), n, l)
				}
			}
		}
	}
	return nil
}

func (c *colCC) partitionVersions() []uint64 {
	out := make([]uint64, c.pt.N)
	for p := range out {
		out[p] = c.labels.Version(p) + c.workset.Version(p)
	}
	return out
}

func (c *colCC) snapshotPartition(p int, buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodePartition(p, enc); err != nil {
		return err
	}
	return c.workset.EncodePartition(p, enc)
}

func (c *colCC) restorePartition(p int, data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := c.labels.DecodePartition(p, dec); err != nil {
		return err
	}
	return c.workset.DecodePartition(p, dec)
}

// captureSnapshot is the async-checkpoint capture: O(partitions)
// copy-on-write views of the label columns and shared slice views of
// the workset columns, encoded from checkpoint goroutines without
// re-boxing a single record.
func (c *colCC) captureSnapshot() checkpoint.PartitionSnapshot {
	return colCCCapture{labels: c.labels.SnapshotShared(), workset: c.workset.SnapshotShared()}
}

type colCCCapture struct {
	labels  *state.DenseStore[uint64]
	workset *state.ColWorkset[uint64]
}

func (s colCCCapture) NumPartitions() int { return s.labels.NumPartitions() }

func (s colCCCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := s.labels.EncodePartition(p, enc); err != nil {
		return err
	}
	return s.workset.EncodePartition(p, enc)
}

func (c *colCC) snapshotDelta(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodeDelta(enc); err != nil {
		return err
	}
	return c.workset.EncodeTo(enc)
}

func (c *colCC) restoreFromChain(base []byte, deltas [][]byte) error {
	dec := gob.NewDecoder(bytes.NewReader(base))
	if err := c.labels.DecodeFrom(dec); err != nil {
		return err
	}
	if err := c.workset.DecodeFrom(dec); err != nil {
		return err
	}
	for i, d := range deltas {
		dec := gob.NewDecoder(bytes.NewReader(d))
		if err := c.labels.ApplyDelta(dec); err != nil {
			return fmt.Errorf("cc: delta %d: %v", i, err)
		}
		if err := c.workset.DecodeFrom(dec); err != nil {
			return fmt.Errorf("cc: delta %d: %v", i, err)
		}
	}
	c.next.ClearAll()
	c.labels.MarkClean()
	return nil
}

func (c *colCC) resetToInitial() error {
	c.labels.ClearAll()
	c.workset.ClearAll()
	c.next.ClearAll()
	c.seedInitial()
	return nil
}
