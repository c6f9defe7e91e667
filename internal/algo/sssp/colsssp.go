// Columnar SSSP: the shortest-path delta iteration on the typed
// columnar engine. Distances live in a dense column store and the
// superstep is one exec.ColStep — ExpandAddWeight over the CSR
// adjacency folded with min — the same relaxations the vertex-centric
// program sends, without boxing each message. The workset holds
// (vertex, distance) activations; expanding an activation at the start
// of superstep t emits exactly the messages the vertex-centric Compute
// sent at the end of superstep t-1, so both paths walk the same
// frontier and reach the same fixpoint. Confined recovery needs the
// runner's accumulator replicas, so AccumulatorLog runs stay on the
// vertex-centric path (see Run).
package sssp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// colSSSP is a columnar shortest-path job implementing recovery.Job.
type colSSSP struct {
	g      *graph.Graph
	source graph.VertexID
	d      *graph.Dense
	pt     *graph.Partitioning

	engine *exec.ColEngine[float64]
	step   *exec.ColStep[float64]

	dist    *state.DenseStore[float64]
	workset *state.ColWorkset[float64]
	next    *state.ColWorkset[float64]

	// pending logs in-place distance writes of the executing attempt,
	// merged back into the workset on abort (relaxations are monotone,
	// so replay is safe) — the same protocol as the columnar CC.
	pendingIdx [][]int32
	pendingVal [][]float64

	updates []int64
}

func newColSSSP(g *graph.Graph, source graph.VertexID, parallelism int) *colSSSP {
	if parallelism < 1 {
		parallelism = 1
	}
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	c := &colSSSP{
		g:          g,
		source:     source,
		d:          d,
		pt:         pt,
		engine:     &exec.ColEngine[float64]{Parallelism: parallelism},
		dist:       state.NewDenseStore[float64]("sssp-dist", d, pt),
		workset:    state.NewColWorkset[float64]("sssp-workset", parallelism),
		next:       state.NewColWorkset[float64]("sssp-next", parallelism),
		pendingIdx: make([][]int32, parallelism),
		pendingVal: make([][]float64, parallelism),
		updates:    make([]int64, parallelism),
	}
	c.step = &exec.ColStep[float64]{
		Adj:    d,
		Parts:  pt,
		Expand: exec.ExpandAddWeight,
		Fold:   exec.FoldMin,
		Source: c.sourceRows,
		Apply:  c.apply,
	}
	c.seedInitial()
	return c
}

func (c *colSSSP) seedInitial() {
	for p, owned := range c.pt.Owned {
		for slot := range owned {
			c.dist.SetSlot(p, int32(slot), Inf)
		}
	}
	if idx, ok := c.d.IndexOf(c.source); ok {
		p := int(c.pt.PartOf[idx])
		c.dist.SetSlot(p, c.pt.Slot[idx], 0)
		c.workset.Add(p, idx, 0)
	}
}

// Name implements recovery.Job; it matches the vertex-centric program
// name so samples and checkpoints are labeled identically.
func (c *colSSSP) Name() string { return "sssp" }

func (c *colSSSP) sourceRows(part int, emit func(src int32, val float64) bool) error {
	idx, val := c.workset.Cols(part)
	for i, src := range idx {
		if !emit(src, val[i]) {
			return nil
		}
	}
	return nil
}

// apply relaxes each folded candidate distance against the current one.
func (c *colSSSP) apply(part int, dst exec.KeyCol, val exec.ValCol[float64]) error {
	slot := c.pt.Slot
	for i, d := range dst {
		cand := val[i]
		s := slot[d]
		cur, ok := c.dist.GetSlot(part, s)
		if ok && cur <= cand {
			continue
		}
		c.dist.SetSlot(part, s, cand)
		c.pendingIdx[part] = append(c.pendingIdx[part], d)
		c.pendingVal[part] = append(c.pendingVal[part], cand)
		c.next.Add(part, d, cand)
		c.updates[part]++
	}
	return nil
}

// Step implements the loop body for iterate.Loop.
func (c *colSSSP) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	for p := range c.updates {
		c.updates[p] = 0
	}
	var fault *exec.FaultInjection
	if ctx != nil {
		fault = ctx.Fault
	}
	stats, err := c.engine.Run(c.step, fault)
	if err != nil {
		c.abortAttempt()
		return iterate.StepStats{}, fmt.Errorf("sssp: superstep: %w", err)
	}
	c.clearPending()
	c.workset.Swap(c.next)
	c.next.ClearAll()
	var updates int64
	for _, n := range c.updates {
		updates += n
	}
	return iterate.StepStats{Messages: stats.Messages, Updates: updates}, nil
}

func (c *colSSSP) abortAttempt() {
	for p, idx := range c.pendingIdx {
		vals := c.pendingVal[p]
		for i, d := range idx {
			c.workset.Add(p, d, vals[i])
		}
	}
	c.clearPending()
	c.next.ClearAll()
}

func (c *colSSSP) clearPending() {
	for p := range c.pendingIdx {
		c.pendingIdx[p] = c.pendingIdx[p][:0]
		c.pendingVal[p] = c.pendingVal[p][:0]
	}
}

// WorksetLen drives iterate.DeltaDone, mirroring Runner.InboxLen.
func (c *colSSSP) WorksetLen() int { return c.workset.Len() }

// Distances materialises the distance column as a map.
func (c *colSSSP) Distances() map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64, c.d.NumVertices())
	c.dist.Range(func(k uint64, v float64) bool {
		out[graph.VertexID(k)] = v
		return true
	})
	return out
}

// SnapshotTo implements recovery.Job.
func (c *colSSSP) SnapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := c.dist.EncodeTo(enc); err != nil {
		return err
	}
	return c.workset.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (c *colSSSP) RestoreFrom(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := c.dist.DecodeFrom(dec); err != nil {
		return err
	}
	if err := c.workset.DecodeFrom(dec); err != nil {
		return err
	}
	c.next.ClearAll()
	return nil
}

// ClearPartitions implements recovery.Job.
func (c *colSSSP) ClearPartitions(parts []int) {
	for _, p := range parts {
		c.dist.ClearPartition(p)
		c.workset.ClearPartition(p)
	}
}

// Compensate implements recovery.Job: the program's compensation —
// lost vertices reset to their initial distances — followed by
// reactivation of every restored vertex and the surviving neighbors of
// lost vertices, exactly as the vertex-centric Compensate does, except
// activations enter the workset instead of sending relaxations
// immediately (the next expansion sends the identical messages).
func (c *colSSSP) Compensate(lost []int) error {
	lostSet := make([]bool, c.pt.N)
	for _, p := range lost {
		lostSet[p] = true
	}
	srcIdx, srcOK := c.d.IndexOf(c.source)
	for _, p := range lost {
		for slot, idx := range c.pt.Owned[p] {
			d := Inf
			if srcOK && idx == srcIdx {
				d = 0
			}
			c.dist.SetSlot(p, int32(slot), d)
		}
	}
	seen := make([]bool, c.d.NumVertices())
	reactivate := func(idx int32) {
		if seen[idx] {
			return
		}
		seen[idx] = true
		p := int(c.pt.PartOf[idx])
		if d, ok := c.dist.GetSlot(p, c.pt.Slot[idx]); ok && !math.IsInf(d, 1) {
			c.workset.Add(p, idx, d)
		}
	}
	offsets, targets := c.d.Offsets, c.d.Targets
	for _, p := range lost {
		for _, idx := range c.pt.Owned[p] {
			reactivate(idx)
			for j := offsets[idx]; j < offsets[idx+1]; j++ {
				n := targets[j]
				if !lostSet[c.pt.PartOf[n]] {
					reactivate(n)
				}
			}
		}
	}
	return nil
}

// ResetToInitial implements recovery.Job.
func (c *colSSSP) ResetToInitial() error {
	c.dist.ClearAll()
	c.workset.ClearAll()
	c.next.ClearAll()
	c.seedInitial()
	return nil
}
