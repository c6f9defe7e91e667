// Package cc implements the Connected Components algorithm of the
// demonstration (§2.2.1): diffusion of the minimum component label
// [PEGASUS] expressed as a delta iteration (Fig. 1a) — label-to-neighbors
// join, candidate-label reduce, label-update join — plus the
// fix-components compensation function that makes the computation
// recoverable without checkpoints: lost vertices are reset to their
// initial labels, and they and their neighbors re-enter the workset to
// propagate labels again.
//
// There is one CC job. It runs on the typed columnar superstep engine:
// labels live in a dense per-partition column store, the workset is two
// parallel (index, label) columns, and the superstep is one exec.ColStep
// — ExpandCopy over the CSR adjacency folded with min — so a superstep
// allocates nothing per message, and the workset and pending-log
// columns are truncated and refilled rather than regrown. FigurePlan renders Fig. 1a;
// BulkCC (bulk.go) is the §2.1 bulk-iteration baseline on exec.Engine.
package cc

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"optiflow/internal/checkpoint"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// CC is a Connected Components delta iteration over a graph. It
// implements recovery.Job.
type CC struct {
	d  *graph.Dense
	pt *graph.Partitioning
	// parts lists the partitions this process computes: all in-process,
	// the hosted subset in a worker (see Hosted).
	parts []int

	engine *exec.ColEngine[uint64]
	step   *exec.ColStep[uint64] // built once, reused every superstep

	labels  *state.DenseStore[uint64] // the solution set
	workset *state.ColWorkset[uint64] // current workset
	next    *state.ColWorkset[uint64] // workset under construction

	// pending logs, per partition and as columns, the in-place label
	// writes of the attempt currently executing. If the attempt aborts
	// mid-superstep, the lowered labels are already in the solution set
	// but the update records that would re-propagate them died with the
	// step; merging the log back into the current workset re-activates
	// those vertices so the retry converges. Labels are monotone
	// component-minimum candidates, so replaying them is always safe.
	pendingIdx [][]int32
	pendingVal [][]uint64

	// updates counts label changes per partition for step stats; each
	// fold task writes only its own slot.
	updates []int64
}

// NewColumnar prepares a Connected Components run on g with the given
// parallelism: every vertex starts in its own component (label = own
// ID) and the initial workset equals the labels input (§2.2.1).
func NewColumnar(g *graph.Graph, parallelism int) *CC {
	if parallelism < 1 {
		parallelism = 1
	}
	return newCC(g, parallelism, nil)
}

// newCC builds the job over the listed partitions of g (nil means all
// of them) and seeds their superstep-zero state.
func newCC(g *graph.Graph, parallelism int, parts []int) *CC {
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	if parts == nil {
		for p := 0; p < parallelism; p++ {
			parts = append(parts, p)
		}
	}
	c := &CC{
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
	c.seed(c.parts)
	return c
}

// seed puts the listed partitions into superstep-zero state.
func (c *CC) seed(parts []int) {
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
func (c *CC) reactivate() {
	for _, p := range c.parts {
		c.workset.ClearPartition(p)
		for slot, idx := range c.pt.Owned[p] {
			if l, ok := c.labels.GetSlot(p, int32(slot)); ok {
				c.workset.Add(p, idx, l)
			}
		}
	}
}

// Name implements recovery.Job.
func (c *CC) Name() string { return "connected-components" }

// WorksetLen returns the current workset size; the delta iteration
// terminates when it reaches zero.
func (c *CC) WorksetLen() int { return c.workset.Len() }

// Components materialises the solution set as a map.
func (c *CC) Components() map[graph.VertexID]graph.VertexID {
	out := make(map[graph.VertexID]graph.VertexID, c.d.NumVertices())
	c.labels.Range(func(k uint64, v uint64) bool {
		out[graph.VertexID(k)] = graph.VertexID(v)
		return true
	})
	return out
}

// ConvergedCount counts vertices whose current label already equals the
// precomputed true component label — the demo's bottom-left plot.
func (c *CC) ConvergedCount(truth map[graph.VertexID]graph.VertexID) int {
	n := 0
	c.labels.Range(func(k uint64, v uint64) bool {
		if truth[graph.VertexID(k)] == graph.VertexID(v) {
			n++
		}
		return true
	})
	return n
}

// source streams partition part's workset columns into the engine.
func (c *CC) source(part int, emit func(src int32, val uint64) bool) error {
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
func (c *CC) apply(part int, dst exec.KeyCol, val exec.ValCol[uint64]) error {
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

// Step implements the loop body for iterate.Loop: run one superstep of
// the delta iteration and swap in the freshly built workset.
func (c *CC) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	var fault *exec.FaultInjection
	if ctx != nil {
		fault = ctx.Fault
	}
	stats, err := c.engine.Run(c.step, fault)
	if err != nil {
		c.abortAttempt()
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("cc: superstep: %w", err)
	}
	return iterate.StepStats{Messages: stats.Messages, Updates: c.advance()}, nil
}

// advance commits a completed fold: the vertices it lowered become the
// workset the next expansion streams. It returns the update count.
func (c *CC) advance() int64 {
	var updates int64
	for _, n := range c.updates {
		updates += n
	}
	c.clearPending()
	c.workset.Swap(c.next)
	c.next.ClearAll()
	return updates
}

// abortAttempt reconciles state after a mid-superstep abort: the partial
// next-workset is discarded, and every label write the aborted step
// applied in place is merged back into the current workset so the
// lowered labels re-propagate on retry (duplicates are harmless — the
// candidate-label fold takes their min).
func (c *CC) abortAttempt() {
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
func (c *CC) clearPending() {
	for p := range c.pendingIdx {
		c.pendingIdx[p] = c.pendingIdx[p][:0]
		c.pendingVal[p] = c.pendingVal[p][:0]
		c.updates[p] = 0
	}
}

// SnapshotTo implements recovery.Job: serialise solution set + workset.
func (c *CC) SnapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodeTo(enc); err != nil {
		return err
	}
	return c.workset.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (c *CC) RestoreFrom(data []byte) error {
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

// ClearPartitions implements recovery.Job: the direct damage of a
// worker crash — its label and workset partitions vanish.
func (c *CC) ClearPartitions(parts []int) {
	for _, p := range parts {
		c.labels.ClearPartition(p)
		c.workset.ClearPartition(p)
	}
}

// Compensate implements recovery.Job — the fix-components compensation
// function of Fig. 1a: re-initialise every lost vertex to its initial
// label (which guarantees convergence to the correct solution [14]) and
// put the restored vertices and their surviving neighbors back into the
// workset so labels propagate again (§3.2).
func (c *CC) Compensate(lost []int) error {
	c.compensate(lost, lost)
	return nil
}

// compensate is fix-components over this process's partitions: those of
// fill (the lost partitions computed here — all of them in-process) are
// seeded, and every surviving vertex with an out-edge into a lost
// partition re-enters the workset. Labels diffuse along out-edges, so
// those are the vertices whose labels the restored ones are missing; each
// process finds its own in the out-edges it holds.
func (c *CC) compensate(lost, fill []int) {
	lostSet := make([]bool, c.pt.N)
	for _, p := range lost {
		lostSet[p] = true
	}
	c.seed(fill)
	offsets, targets, partOf := c.d.Offsets, c.d.Targets, c.pt.PartOf
	for _, p := range c.parts {
		if lostSet[p] {
			continue
		}
		for slot, idx := range c.pt.Owned[p] {
			for j := offsets[idx]; j < offsets[idx+1]; j++ {
				if !lostSet[partOf[targets[j]]] {
					continue
				}
				if l, ok := c.labels.GetSlot(p, int32(slot)); ok {
					c.workset.Add(p, idx, l)
				}
				break
			}
		}
	}
}

// PartitionVersions implements recovery.IncrementalJob: a partition's
// version moves whenever its labels or its workset slice change. Both
// counters only increase, so their sum changes iff either does.
func (c *CC) PartitionVersions() []uint64 {
	out := make([]uint64, c.pt.N)
	for p := range out {
		out[p] = c.labels.Version(p) + c.workset.Version(p)
	}
	return out
}

// SnapshotPartition implements recovery.IncrementalJob.
func (c *CC) SnapshotPartition(p int, buf *bytes.Buffer) error {
	return encodePartition(c.labels, c.workset, p, buf)
}

func encodePartition(labels *state.DenseStore[uint64], workset *state.ColWorkset[uint64], p int, buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := labels.EncodePartition(p, enc); err != nil {
		return err
	}
	return workset.EncodePartition(p, enc)
}

// RestorePartition implements recovery.IncrementalJob.
func (c *CC) RestorePartition(p int, data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := c.labels.DecodePartition(p, dec); err != nil {
		return err
	}
	return c.workset.DecodePartition(p, dec)
}

// CaptureSnapshot implements recovery.AsyncJob: O(partitions)
// copy-on-write views of the label columns plus shared slice views of
// the workset columns, taken at the superstep barrier and safe to
// encode from background goroutines while the next superstep mutates
// the live state. Per-partition encoding matches SnapshotPartition byte
// for byte, so RestorePartition round-trips either.
func (c *CC) CaptureSnapshot() checkpoint.PartitionSnapshot {
	return ccCapture{labels: c.labels.SnapshotShared(), workset: c.workset.SnapshotShared()}
}

type ccCapture struct {
	labels  *state.DenseStore[uint64]
	workset *state.ColWorkset[uint64]
}

func (s ccCapture) NumPartitions() int { return s.labels.NumPartitions() }

func (s ccCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	return encodePartition(s.labels, s.workset, p, buf)
}

// SnapshotDelta implements recovery.DeltaJob: the label changes since
// the previous delta, plus the current workset (which turns over
// wholesale every superstep and shrinks as the iteration converges —
// exactly like the update stream itself).
func (c *CC) SnapshotDelta(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodeDelta(enc); err != nil {
		return err
	}
	return c.workset.EncodeTo(enc)
}

// RestoreFromChain implements recovery.DeltaJob: replay the base
// snapshot and the ordered label deltas; the newest delta's workset
// wins (it is a full copy, not a diff).
func (c *CC) RestoreFromChain(base []byte, deltas [][]byte) error {
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
	// The state now equals the stored chain; start the next delta here.
	c.labels.MarkClean()
	return nil
}

// ResetToInitial implements recovery.Job: back to superstep zero.
func (c *CC) ResetToInitial() error {
	c.labels.ClearAll()
	c.workset.ClearAll()
	c.next.ClearAll()
	c.seed(c.parts)
	return nil
}

// FigurePlan reproduces Fig. 1(a): the conceptual delta-iteration
// dataflow including the fix-components compensation map that is
// invoked only after failures. The plan is for rendering (Explain/Dot),
// not execution.
func FigurePlan() *dataflow.Plan {
	plan := dataflow.NewPlan("connected-components (Fig. 1a)")
	noopKey := func(any) uint64 { return 0 }
	workset := plan.Source("workset", func(int, int, dataflow.Emit) error { return nil })
	graphSrc := plan.Source("graph", func(int, int, dataflow.Emit) error { return nil })
	labels := plan.Source("labels", func(int, int, dataflow.Emit) error { return nil })

	cand := workset.ReduceBy("candidate-label", noopKey, func(uint64, []any, dataflow.Emit) {})
	upd := cand.Join("label-update", labels, noopKey, noopKey, dataflow.JoinInner, func(any, any, dataflow.Emit) {})
	toNbrs := upd.Join("label-to-neighbors", graphSrc, noopKey, noopKey, dataflow.JoinInner, func(any, any, dataflow.Emit) {})
	toNbrs.Sink("next-workset", func(int, any) error { return nil })

	fix := labels.Map("fix-components", func(r any) any { return r })
	fix.Sink("restored-labels", func(int, any) error { return nil })
	plan.MarkState("labels")
	plan.MarkCompensation("fix-components")
	return plan
}
