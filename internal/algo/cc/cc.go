// Package cc implements the Connected Components algorithm of the
// demonstration (§2.2.1): diffusion of the minimum component label
// [PEGASUS] expressed as a delta-iteration dataflow (Fig. 1a) —
// label-to-neighbors join, candidate-label reduce, label-update join —
// plus the fix-components compensation function that makes the
// computation recoverable without checkpoints: lost vertices are reset
// to their initial labels, and they and their neighbors re-enter the
// workset to propagate labels again.
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

// Update is both the workset item and the update record of the delta
// iteration: vertex V changed its component label to Label.
type Update struct {
	V     graph.VertexID
	Label uint64
}

// CC is a Connected Components delta iteration over a graph. It
// implements recovery.Job.
type CC struct {
	g        *graph.Graph
	par      int
	engine   *exec.Engine
	prepared *exec.Prepared // step plan, compiled once and reused

	labels  *state.Store[uint64]   // the solution set
	workset *state.Workset[Update] // current workset
	next    *state.Workset[Update] // workset under construction

	// pending logs, per partition, the in-place label Puts of the
	// attempt currently executing. If the attempt aborts mid-superstep,
	// the lowered labels are already in the solution set but the update
	// records that would re-propagate them died with the plan; merging
	// the log back into the current workset re-activates those vertices
	// so the retry converges. Labels are monotone component-minimum
	// candidates, so replaying them is always safe.
	pending [][]Update

	owned [][]graph.VertexID // partition -> vertices, for compensation

	// col, when non-nil, holds the columnar engine internals and every
	// method below dispatches to it; the boxed fields above stay nil.
	// The two paths compute identical labelings (see the equivalence
	// tests); columnar is the default in Run, boxed remains the fully
	// general fallback.
	col *colCC
}

// New prepares a Connected Components run on g with the given
// parallelism: every vertex starts in its own component (label = own
// ID) and the initial workset equals the labels input (§2.2.1).
func New(g *graph.Graph, parallelism int) *CC {
	if parallelism < 1 {
		parallelism = 1
	}
	c := &CC{
		g:       g,
		par:     parallelism,
		engine:  &exec.Engine{Parallelism: parallelism},
		labels:  state.NewStore[uint64]("labels", parallelism),
		workset: state.NewWorkset[Update]("workset", parallelism),
		next:    state.NewWorkset[Update]("next-workset", parallelism),
		pending: make([][]Update, parallelism),
		owned:   graph.PartitionVertices(g, parallelism),
	}
	c.seedInitial()
	return c
}

// NewColumnar prepares a Connected Components run on the typed columnar
// engine: same iteration, same recovery contract, no per-record boxing.
func NewColumnar(g *graph.Graph, parallelism int) *CC {
	if parallelism < 1 {
		parallelism = 1
	}
	return &CC{g: g, par: parallelism, col: newColCC(g, parallelism, nil)}
}

// Columnar reports whether the job runs on the columnar engine.
func (c *CC) Columnar() bool { return c.col != nil }

func (c *CC) seedInitial() {
	for p, vs := range c.owned {
		for _, v := range vs {
			c.labels.Put(uint64(v), uint64(v))
			c.workset.Add(p, Update{V: v, Label: uint64(v)})
		}
	}
}

// Name implements recovery.Job.
func (c *CC) Name() string { return "connected-components" }

// Labels returns the boxed solution set (current component label per
// vertex); nil on the columnar path, whose labels live in a dense
// column store — use Components for a representation-agnostic view.
func (c *CC) Labels() *state.Store[uint64] { return c.labels }

// WorksetLen returns the current workset size; the delta iteration
// terminates when it reaches zero.
func (c *CC) WorksetLen() int {
	if c.col != nil {
		return c.col.worksetLen()
	}
	return c.workset.Len()
}

// Components materialises the solution set as a map.
func (c *CC) Components() map[graph.VertexID]graph.VertexID {
	if c.col != nil {
		return c.col.components()
	}
	out := make(map[graph.VertexID]graph.VertexID, c.g.NumVertices())
	c.labels.Range(func(k uint64, v uint64) bool {
		out[graph.VertexID(k)] = graph.VertexID(v)
		return true
	})
	return out
}

// ConvergedCount counts vertices whose current label already equals the
// precomputed true component label — the demo's bottom-left plot.
func (c *CC) ConvergedCount(truth map[graph.VertexID]graph.VertexID) int {
	if c.col != nil {
		return c.col.convergedCount(truth)
	}
	n := 0
	c.labels.Range(func(k uint64, v uint64) bool {
		if truth[graph.VertexID(k)] == graph.VertexID(v) {
			n++
		}
		return true
	})
	return n
}

type adjacencyTable struct{ g *graph.Graph }

// Get implements dataflow.Table: key -> neighbor list.
func (a adjacencyTable) Get(key uint64) (any, bool) {
	nbrs := a.g.OutNeighbors(graph.VertexID(key))
	if nbrs == nil {
		return nil, false
	}
	return nbrs, true
}

func byVertex(rec any) uint64 { return uint64(rec.(Update).V) }

// StepPlan builds the executable per-superstep dataflow: the loop body
// of Fig. 1a with the workset cut as its entry point. Exported for the
// plan tooling (optiflow-graph) and the planlint test sweep.
func (c *CC) StepPlan() *dataflow.Plan {
	plan := dataflow.NewPlan("connected-components-step")
	adj := adjacencyTable{g: c.g}

	ws := plan.Source("workset", func(part, _ int, emit dataflow.Emit) error {
		for _, u := range c.workset.Items(part) {
			emit(u)
		}
		return nil
	})

	// Candidate labels sent to neighbors — the demo's "messages".
	msgs := ws.LookupJoin("label-to-neighbors", "graph", byVertex,
		func(int, int) dataflow.Table { return adj },
		func(rec any, table dataflow.Table, emit dataflow.Emit) {
			u := rec.(Update)
			nbrs, ok := table.Get(uint64(u.V))
			if !ok {
				return
			}
			for _, n := range nbrs.([]graph.VertexID) {
				emit(Update{V: n, Label: u.Label})
			}
		})

	// Min is associative and commutative, so the candidate label folds
	// incrementally: the engine keeps one *Update accumulator per
	// vertex instead of materializing every message.
	cands := msgs.ReduceByCombining("candidate-label", byVertex,
		func(acc, rec any) any {
			u := rec.(Update)
			if acc == nil {
				return &u
			}
			a := acc.(*Update)
			if u.Label < a.Label {
				a.Label = u.Label
			}
			return a
		},
		func(key uint64, acc any, emit dataflow.Emit) {
			emit(Update{V: graph.VertexID(key), Label: acc.(*Update).Label})
		}).HintKeyCardinality(c.g.NumVertices()/c.par + 1)

	// The solution-set index join: compare the candidate to the current
	// label and update the solution set in place. Each task reads and
	// writes only its own label partition (hash exchange aligns records
	// with state partitioning), so the in-place Put is race-free.
	updates := cands.LookupJoin("label-update", "labels", byVertex,
		func(part, _ int) dataflow.Table { return c.labels.Table(part) },
		func(rec any, table dataflow.Table, emit dataflow.Emit) {
			u := rec.(Update)
			cur, ok := table.Get(uint64(u.V))
			if ok && cur.(uint64) <= u.Label {
				return
			}
			c.labels.Put(uint64(u.V), u.Label)
			// Hash exchange routes u to the task owning u.V's partition,
			// so this per-partition append is race-free.
			p := graph.Partition(u.V, c.par)
			c.pending[p] = append(c.pending[p], u)
			emit(u)
		})

	updates.Sink("collect-workset", func(part int, rec any) error {
		c.next.Add(part, rec.(Update))
		return nil
	})
	plan.MarkState("label-update")
	plan.CompensateExternally("fix-components via recovery.Job.Compensate")
	return plan
}

// Step implements the loop body for iterate.Loop: run one superstep of
// the delta iteration and swap in the freshly built workset. The step
// plan's operators read the workset and label state at run time, so the
// prepared plan is built once and reused across supersteps.
func (c *CC) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	if c.col != nil {
		var fault *exec.FaultInjection
		if ctx != nil {
			fault = ctx.Fault
		}
		messages, updates, err := c.col.runStep(fault)
		if err != nil {
			return iterate.StepStats{}, err
		}
		return iterate.StepStats{Messages: messages, Updates: updates}, nil
	}
	if c.prepared == nil {
		p, err := c.engine.Prepare(c.StepPlan())
		if err != nil {
			return iterate.StepStats{}, fmt.Errorf("cc: superstep: %v", err)
		}
		c.prepared = p
	}
	var fault *exec.FaultInjection
	if ctx != nil {
		fault = ctx.Fault
	}
	stats, err := c.prepared.RunWithFault(fault)
	if err != nil {
		c.abortAttempt()
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("cc: superstep: %w", err)
	}
	clearPending(c.pending)
	c.workset.Swap(c.next)
	c.next.ClearAll()
	return iterate.StepStats{
		Messages: stats.Outputs("label-to-neighbors"),
		Updates:  stats.Outputs("label-update"),
	}, nil
}

// abortAttempt reconciles state after a mid-superstep abort: the partial
// next-workset is discarded, and every label Put the aborted plan
// applied in place is merged back into the current workset so the
// lowered labels re-propagate on retry (duplicates are harmless — the
// candidate-label reduce folds them with min).
func (c *CC) abortAttempt() {
	for p, ups := range c.pending {
		for _, u := range ups {
			c.workset.Add(p, u)
		}
	}
	clearPending(c.pending)
	c.next.ClearAll()
}

func clearPending(pending [][]Update) {
	for p := range pending {
		pending[p] = nil
	}
}

// SnapshotTo implements recovery.Job: serialise solution set + workset.
func (c *CC) SnapshotTo(buf *bytes.Buffer) error {
	if c.col != nil {
		return c.col.snapshotTo(buf)
	}
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodeTo(enc); err != nil {
		return err
	}
	return c.workset.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (c *CC) RestoreFrom(data []byte) error {
	if c.col != nil {
		return c.col.restoreFrom(data)
	}
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
	if c.col != nil {
		c.col.clearPartitions(parts)
		return
	}
	for _, p := range parts {
		c.labels.ClearPartition(p)
		c.workset.ClearPartition(p)
	}
}

// Compensate implements recovery.Job — the fix-components compensation
// function of Fig. 1a: re-initialise every lost vertex to its initial
// label (which guarantees convergence to the correct solution [14]) and
// put the restored vertices and their neighbors back into the workset
// so labels propagate again (§3.2).
func (c *CC) Compensate(lost []int) error {
	if c.col != nil {
		return c.col.compensate(lost)
	}
	lostSet := make(map[int]bool, len(lost))
	for _, p := range lost {
		lostSet[p] = true
	}
	// First restore the lost vertices themselves.
	for _, p := range lost {
		for _, v := range c.owned[p] {
			c.labels.Put(uint64(v), uint64(v))
			c.workset.Add(p, Update{V: v, Label: uint64(v)})
		}
	}
	// Then re-activate surviving neighbors so they re-send their labels
	// into the restored partitions.
	seeded := make(map[graph.VertexID]bool)
	for _, p := range lost {
		for _, v := range c.owned[p] {
			for _, n := range c.g.OutNeighbors(v) {
				np := graph.Partition(n, c.par)
				if lostSet[np] || seeded[n] {
					continue
				}
				seeded[n] = true
				if l, ok := c.labels.Get(uint64(n)); ok {
					c.workset.Add(np, Update{V: n, Label: l})
				}
			}
		}
	}
	return nil
}

// PartitionVersions implements recovery.IncrementalJob: a partition's
// version moves whenever its labels or its workset slice change. Both
// counters only increase, so their sum changes iff either does.
func (c *CC) PartitionVersions() []uint64 {
	if c.col != nil {
		return c.col.partitionVersions()
	}
	out := make([]uint64, c.par)
	for p := range out {
		out[p] = c.labels.Version(p) + c.workset.Version(p)
	}
	return out
}

// SnapshotPartition implements recovery.IncrementalJob.
func (c *CC) SnapshotPartition(p int, buf *bytes.Buffer) error {
	if c.col != nil {
		return c.col.snapshotPartition(p, buf)
	}
	enc := gob.NewEncoder(buf)
	if err := c.labels.EncodePartition(p, enc); err != nil {
		return err
	}
	return c.workset.EncodePartition(p, enc)
}

// RestorePartition implements recovery.IncrementalJob.
func (c *CC) RestorePartition(p int, data []byte) error {
	if c.col != nil {
		return c.col.restorePartition(p, data)
	}
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := c.labels.DecodePartition(p, dec); err != nil {
		return err
	}
	return c.workset.DecodePartition(p, dec)
}

// CaptureSnapshot implements recovery.AsyncJob: an O(partitions)
// copy-on-write view of the solution set plus a shared-slice view of
// the workset, taken at the superstep barrier and safe to encode from
// background goroutines while the next superstep mutates the live
// state. Per-partition encoding matches SnapshotPartition byte for
// byte, so RestorePartition round-trips either.
func (c *CC) CaptureSnapshot() checkpoint.PartitionSnapshot {
	if c.col != nil {
		return c.col.captureSnapshot()
	}
	return ccCapture{labels: c.labels.SnapshotShared(), workset: c.workset.SnapshotShared()}
}

type ccCapture struct {
	labels  *state.Store[uint64]
	workset *state.Workset[Update]
}

func (s ccCapture) NumPartitions() int { return s.labels.NumPartitions() }

func (s ccCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := s.labels.EncodePartition(p, enc); err != nil {
		return err
	}
	return s.workset.EncodePartition(p, enc)
}

// SnapshotDelta implements recovery.DeltaJob: the label changes since
// the previous delta, plus the current workset (which turns over
// wholesale every superstep and shrinks as the iteration converges —
// exactly like the update stream itself).
func (c *CC) SnapshotDelta(buf *bytes.Buffer) error {
	if c.col != nil {
		return c.col.snapshotDelta(buf)
	}
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
	if c.col != nil {
		return c.col.restoreFromChain(base, deltas)
	}
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
	if c.col != nil {
		return c.col.resetToInitial()
	}
	c.labels.ClearAll()
	c.workset.ClearAll()
	c.next.ClearAll()
	c.seedInitial()
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
