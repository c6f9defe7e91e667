// Package minfold is the min-fold delta iteration (Fig. 1a) shared by
// Connected Components and single-source shortest paths: every active
// vertex sends its value along its out-edges, each vertex keeps the
// minimum candidate it receives, and the vertices it lowered form the
// next workset. The two algorithms differ only in what a Kernel
// supplies — a name, the Expand kernel (CC copies its label, SSSP adds
// the edge weight) and each vertex's initial value — so the job, every
// snapshot capability and the fix-components compensation exist once,
// here. NewBulk runs the same job as a bulk iteration: every vertex is
// active in every superstep, as a bulk iteration is an incremental one
// whose workset is every vertex.
//
// The job runs on the typed columnar superstep engine: values live in a
// dense per-partition column store, the workset is two parallel
// (index, value) columns, and the superstep is one exec.ColStep folded
// with min, so a superstep allocates nothing per message, and the
// workset columns are truncated and refilled rather than regrown.
package minfold

import (
	"bytes"
	"fmt"

	"optiflow/internal/checkpoint"
	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// Kernel is what an algorithm supplies to the min-fold job.
type Kernel[V exec.ColValue] struct {
	// Name identifies the job (recovery.Job.Name).
	Name string
	// Expand turns an active vertex's value into the candidate it sends
	// along each out-edge.
	Expand exec.ExpandKind
	// Init returns dense vertex idx's initial value and whether the
	// vertex starts active. A vertex still at an inactive initial value
	// has nothing to send, so no restart re-activates it.
	Init func(idx int32) (V, bool)
}

// Job is a min-fold delta iteration over a graph. It implements
// recovery.Job, IncrementalJob, AsyncJob and DeltaJob.
type Job[V exec.ColValue] struct {
	name string
	init func(idx int32) (V, bool)
	d    *graph.Dense
	pt   *graph.Partitioning
	// parts lists the partitions this process computes: all in-process,
	// the hosted subset in a worker (see Hosted).
	parts []int

	engine *exec.ColEngine[V]
	step   *exec.ColStep[V] // built once, reused every superstep

	// The solution set keeps its historical store names, which full
	// snapshots carry.
	vals    *state.DenseStore[V]
	workset *state.ColWorkset[V] // current workset
	next    *state.ColWorkset[V] // workset under construction

	// updates counts value changes per partition for step stats.
	updates []int64
	// bulk makes every vertex active again after each superstep that
	// lowered a value and after each compensation (NewBulk).
	bulk bool
}

// New prepares a run of k on g with the given parallelism, every vertex
// at its initial value.
func New[V exec.ColValue](k Kernel[V], g *graph.Graph, parallelism int) *Job[V] {
	if parallelism < 1 {
		parallelism = 1
	}
	return newJob(k, g, parallelism, nil)
}

// NewBulk is New as a bulk iteration (§2.1): after every superstep that
// lowers a value, and after a compensation, every vertex is active, so
// each superstep recomputes the whole solution set. A superstep that
// lowers nothing leaves the workset empty, and the run stops there.
func NewBulk[V exec.ColValue](k Kernel[V], g *graph.Graph, parallelism int) *Job[V] {
	j := New(k, g, parallelism)
	j.bulk = true
	return j
}

// newJob builds the job over the listed partitions of g (nil means all
// of them) and seeds their superstep-zero state.
func newJob[V exec.ColValue](k Kernel[V], g *graph.Graph, parallelism int, parts []int) *Job[V] {
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	if parts == nil {
		for p := 0; p < parallelism; p++ {
			parts = append(parts, p)
		}
	}
	j := &Job[V]{
		name:    k.Name,
		init:    k.Init,
		d:       d,
		pt:      pt,
		parts:   parts,
		engine:  &exec.ColEngine[V]{Parallelism: parallelism},
		vals:    state.NewDenseStore[V]("labels", d, pt),
		workset: state.NewColWorkset[V]("workset", parallelism),
		next:    state.NewColWorkset[V]("next-workset", parallelism),
		updates: make([]int64, parallelism),
	}
	j.step = &exec.ColStep[V]{
		Adj:    d,
		Parts:  pt,
		Expand: k.Expand,
		Fold:   exec.FoldMin,
		Source: j.source,
		Apply:  j.apply,
	}
	j.seed(j.parts)
	return j
}

// seed puts the listed partitions into superstep-zero state.
func (j *Job[V]) seed(parts []int) {
	for _, p := range parts {
		for slot, idx := range j.pt.Owned[p] {
			v, active := j.init(idx)
			j.vals.SetSlot(p, int32(slot), v)
			if active {
				j.workset.Add(p, idx, v)
			}
		}
	}
}

// activate puts the vertex at (p, slot) into the workset with its
// current value, unless it has nothing to send.
func (j *Job[V]) activate(p int, slot, idx int32) {
	v, ok := j.vals.GetSlot(p, slot)
	if !ok {
		return
	}
	if init, active := j.init(idx); !active && v == init {
		return
	}
	j.workset.Add(p, idx, v)
}

// reactivate makes every vertex of this process's partitions active
// with its current value: the exchange restarts from state alone.
func (j *Job[V]) reactivate() {
	for _, p := range j.parts {
		j.workset.ClearPartition(p)
		for slot, idx := range j.pt.Owned[p] {
			j.activate(p, int32(slot), idx)
		}
	}
}

// Name implements recovery.Job.
func (j *Job[V]) Name() string { return j.name }

// WorksetLen returns the current workset size; the delta iteration
// terminates when it reaches zero.
func (j *Job[V]) WorksetLen() int { return j.workset.Len() }

// NumVertices returns the vertex count of the job's graph.
func (j *Job[V]) NumVertices() int { return j.d.NumVertices() }

// Range calls fn with every vertex this process holds a value for,
// until fn returns false.
func (j *Job[V]) Range(fn func(v graph.VertexID, val V) bool) {
	j.vals.Range(func(k uint64, val V) bool { return fn(graph.VertexID(k), val) })
}

// source hands the engine partition part's workset columns.
func (j *Job[V]) source(part int) (exec.KeyCol, exec.ValCol[V]) {
	return j.workset.Cols(part)
}

// apply is the update join of Fig. 1a on columns: one pass over the
// folded candidates writes each into the tail of next's columns and
// keeps it — advances the count — only where it lowers the current
// value; then one bulk write lowers the kept vertices' values. dst
// holds each destination once (ColStep.Apply), so no candidate is
// compared against a value this pass lowered. The engine routes
// updates to the partition owning them.
func (j *Job[V]) apply(part int, dst exec.KeyCol, val exec.ValCol[V]) error {
	cur, has := j.vals.Column(part)
	cur, val = cur[:len(has)], val[:len(dst)] // so has[s] and i bound cur and val
	slot := j.pt.Slot
	idx, vals := j.next.Grow(part, len(dst))
	n := 0
	for i, d := range dst {
		cand, s := val[i], slot[d]
		h := has[s]
		c := cur[s]
		idx[n], vals[n] = d, cand
		// !(h && c <= cand), the test of a per-vertex loop, as arithmetic:
		// a NaN or a ±0 tie decides as it always did.
		n += 1 - b2i(h)&b2i(c <= cand)
	}
	j.vals.SetIdx(part, idx[:n], vals[:n])
	j.next.Commit(part, n)
	j.updates[part] += int64(n)
	return nil
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// Step implements the loop body for iterate.Loop: run one superstep of
// the delta iteration and swap in the freshly built workset. A
// mid-superstep fault strikes during the expansion, before any apply
// lowers a value, so an aborted attempt leaves the values and the
// workset as they were and the retry expands the same workset again.
func (j *Job[V]) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	stats, err := j.engine.Run(j.step, ctx.ScheduledFault())
	if err != nil {
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("%s: superstep: %w", j.name, err)
	}
	updates := j.advance()
	if j.bulk && updates > 0 {
		j.reactivate()
	}
	return iterate.StepStats{Messages: stats.Messages, Updates: updates}, nil
}

// advance commits a completed fold: the vertices it lowered become the
// workset the next expansion streams. It returns the update count.
func (j *Job[V]) advance() int64 {
	var updates int64
	for _, n := range j.updates {
		updates += n
	}
	clear(j.updates)
	j.workset.Swap(j.next)
	j.next.ClearAll()
	return updates
}

// SnapshotTo implements recovery.Job: the format tag, the partition
// count, then every partition's value view and workset view.
func (j *Job[V]) SnapshotTo(buf *bytes.Buffer) error {
	j.appendAll(buf, j.vals.AppendPartitionBytes)
	return nil
}

// RestoreFrom implements recovery.Job.
func (j *Job[V]) RestoreFrom(data []byte) error {
	j.next.ClearAll()
	return j.restoreAll(data, j.vals.RestorePartitionBytes)
}

// appendAll writes the format tag, the partition count and, per
// partition, what vals writes of the values and then the workset view.
func (j *Job[V]) appendAll(buf *bytes.Buffer, vals func([]byte, int, func([]byte, []V) []byte) []byte) {
	enc := exec.AppendVals[V] // one func value, not one per partition
	b := append(buf.AvailableBuffer(), state.ViewTag)
	b = colbytes.AppendU32(b, uint32(j.pt.N))
	for p := 0; p < j.pt.N; p++ {
		b = vals(b, p, enc)
		b = j.workset.AppendPartitionBytes(b, p, enc)
	}
	buf.Write(b)
}

// restoreAll reads a blob appendAll wrote, with vals reading each
// partition's values.
func (j *Job[V]) restoreAll(data []byte, vals readVals[V]) error {
	return state.ReadView(j.name, data, func(r *colbytes.Reader) error {
		return state.ReadPartitions(r, j.pt.N, func(p int) error { return j.restorePartition(p, r, vals) })
	})
}

// readVals reads one partition's values into the store: a full view
// or a delta.
type readVals[V exec.ColValue] func(p int, r *colbytes.Reader, dec func(*colbytes.Reader, []V)) error

// restorePartition reads one partition's values, then its workset.
func (j *Job[V]) restorePartition(p int, r *colbytes.Reader, vals readVals[V]) error {
	if err := vals(p, r, exec.ReadVals[V]); err != nil {
		return err
	}
	return j.workset.RestorePartitionBytes(p, r, exec.ReadVals[V], j.pt)
}

// ClearPartitions implements recovery.Job: the direct damage of a
// worker crash — its value and workset partitions vanish.
func (j *Job[V]) ClearPartitions(parts []int) {
	for _, p := range parts {
		j.vals.ClearPartition(p)
		j.workset.ClearPartition(p)
	}
}

// Compensate implements recovery.Job — the fix-components compensation
// function of Fig. 1a: re-initialise every lost vertex to its initial
// value (which guarantees convergence to the correct solution [14]) and
// put the restored vertices and the surviving vertices that send to
// them back into the workset so values propagate again (§3.2). A bulk
// job then makes every vertex active: the compensated state is not
// converged.
func (j *Job[V]) Compensate(lost []int) error {
	j.compensate(lost, lost)
	if j.bulk {
		j.reactivate()
	}
	return nil
}

// compensate is fix-components over this process's partitions: those of
// fill (the lost partitions computed here — all of them in-process) are
// seeded, and every surviving vertex with an out-edge into a lost
// partition re-enters the workset. Values diffuse along out-edges, so
// those are the vertices whose values the restored ones are missing;
// each process finds its own in the out-edges it holds.
func (j *Job[V]) compensate(lost, fill []int) {
	lostSet := make([]bool, j.pt.N)
	for _, p := range lost {
		lostSet[p] = true
	}
	j.seed(fill)
	offsets, targets, partOf := j.d.Offsets, j.d.Targets, j.pt.PartOf
	for _, p := range j.parts {
		if lostSet[p] {
			continue
		}
		for slot, idx := range j.pt.Owned[p] {
			for e := offsets[idx]; e < offsets[idx+1]; e++ {
				if lostSet[partOf[targets[e]]] {
					j.activate(p, int32(slot), idx)
					break
				}
			}
		}
	}
}

// PartitionVersions implements recovery.IncrementalJob: a partition's
// version moves whenever its values or its workset slice change. Both
// counters only increase, so their sum changes iff either does.
func (j *Job[V]) PartitionVersions() []uint64 {
	out := make([]uint64, j.pt.N)
	for p := range out {
		out[p] = j.vals.Version(p) + j.workset.Version(p)
	}
	return out
}

// SnapshotPartition implements recovery.IncrementalJob.
func (j *Job[V]) SnapshotPartition(p int, buf *bytes.Buffer) error {
	return capture[V]{j.vals, j.workset}.SnapshotPartition(p, buf)
}

// RestorePartition implements recovery.IncrementalJob.
func (j *Job[V]) RestorePartition(p int, data []byte) error {
	return state.ReadView(j.name, data, func(r *colbytes.Reader) error {
		return j.restorePartition(p, r, j.vals.RestorePartitionBytes)
	})
}

// CaptureSnapshot implements recovery.AsyncJob: O(partitions)
// copy-on-write views of the value columns plus shared slice views of
// the workset columns, taken at the superstep barrier and safe to
// encode from background goroutines while the next superstep mutates
// the live state. Per-partition encoding matches SnapshotPartition byte
// for byte, so RestorePartition round-trips either.
func (j *Job[V]) CaptureSnapshot() checkpoint.PartitionSnapshot {
	return capture[V]{vals: j.vals.SnapshotShared(), workset: j.workset.SnapshotShared()}
}

type capture[V exec.ColValue] struct {
	vals    *state.DenseStore[V]
	workset *state.ColWorkset[V]
}

func (s capture[V]) NumPartitions() int { return s.vals.NumPartitions() }

// SnapshotPartition writes the format tag, partition p's value view —
// the bytes Hosted.AppendPartition ships — and its workset view.
func (s capture[V]) SnapshotPartition(p int, buf *bytes.Buffer) error {
	b := append(buf.AvailableBuffer(), state.ViewTag)
	b = s.vals.AppendPartitionBytes(b, p, exec.AppendVals[V])
	buf.Write(s.workset.AppendPartitionBytes(b, p, exec.AppendVals[V]))
	return nil
}

// SnapshotDelta implements recovery.DeltaJob: per partition, the value
// changes since the previous delta plus the current workset (which
// turns over wholesale every superstep and shrinks as the iteration
// converges — exactly like the update stream itself).
func (j *Job[V]) SnapshotDelta(buf *bytes.Buffer) error {
	j.appendAll(buf, j.vals.AppendDeltaBytes)
	j.vals.MarkClean()
	return nil
}

// RestoreFromChain implements recovery.DeltaJob: replay the base
// snapshot and the ordered value deltas; the newest delta's workset
// wins (it is a full copy, not a diff).
func (j *Job[V]) RestoreFromChain(base []byte, deltas [][]byte) error {
	if err := j.RestoreFrom(base); err != nil {
		return err
	}
	for i, d := range deltas {
		if err := j.restoreAll(d, j.vals.RestoreDeltaBytes); err != nil {
			return fmt.Errorf("delta %d: %w", i, err)
		}
	}
	// The state now equals the stored chain; start the next delta here.
	j.vals.MarkClean()
	return nil
}

// ResetToInitial implements recovery.Job: back to superstep zero.
func (j *Job[V]) ResetToInitial() error {
	j.vals.ClearAll()
	j.workset.ClearAll()
	j.next.ClearAll()
	j.seed(j.parts)
	return nil
}
