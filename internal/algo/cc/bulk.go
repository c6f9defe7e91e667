package cc

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"optiflow/internal/cluster"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// Update is the record of the bulk iteration's dataflow: vertex V
// carries (or changed its component label to) Label.
type Update struct {
	V     graph.VertexID
	Label uint64
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

// BulkCC is Connected Components as a *bulk* iteration: every superstep
// recomputes the label of every vertex, converged or not. It exists to
// make the paper's §2.1 motivation measurable — "the system would waste
// resources by always recomputing the whole intermediate state" — by
// comparison against the delta-iteration CC. Its compensation is even
// simpler than fix-components: reset lost vertices to their initial
// labels; the next superstep recomputes everything anyway, so no
// workset re-seeding is needed.
type BulkCC struct {
	g        *graph.Graph
	par      int
	engine   *exec.Engine
	prepared *exec.Prepared // step plan, compiled once and reused

	labels      *state.Store[uint64]
	owned       [][]graph.VertexID
	lastUpdates int64 // -1 until the first superstep commits
}

// NewBulk prepares a bulk-iteration Connected Components run.
func NewBulk(g *graph.Graph, parallelism int) *BulkCC {
	if parallelism < 1 {
		parallelism = 1
	}
	b := &BulkCC{
		g:      g,
		par:    parallelism,
		engine: &exec.Engine{Parallelism: parallelism},
		labels: state.NewStore[uint64]("labels", parallelism),
		owned:  graph.PartitionVertices(g, parallelism),
	}
	b.seedInitial()
	return b
}

func (b *BulkCC) seedInitial() {
	for _, v := range b.g.Vertices() {
		b.labels.Put(uint64(v), uint64(v))
	}
	b.lastUpdates = -1
}

// Name implements recovery.Job.
func (b *BulkCC) Name() string { return "connected-components-bulk" }

// Components materialises the current labeling.
func (b *BulkCC) Components() map[graph.VertexID]graph.VertexID {
	out := make(map[graph.VertexID]graph.VertexID, b.g.NumVertices())
	b.labels.Range(func(k, v uint64) bool {
		out[graph.VertexID(k)] = graph.VertexID(v)
		return true
	})
	return out
}

// Converged reports whether the last committed superstep changed
// nothing.
func (b *BulkCC) Converged() bool { return b.lastUpdates == 0 }

func (b *BulkCC) StepPlan() *dataflow.Plan {
	plan := dataflow.NewPlan("connected-components-bulk-step")
	adj := adjacencyTable{g: b.g}

	labels := plan.Source("labels", func(part, _ int, emit dataflow.Emit) error {
		b.labels.RangePartition(part, func(k, v uint64) bool {
			emit(Update{V: graph.VertexID(k), Label: v})
			return true
		})
		return nil
	})

	msgs := labels.LookupJoin("label-to-neighbors", "graph", byVertex,
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
		})

	updates := cands.LookupJoin("label-update", "labels", byVertex,
		func(part, _ int) dataflow.Table { return b.labels.Table(part) },
		func(rec any, table dataflow.Table, emit dataflow.Emit) {
			u := rec.(Update)
			cur, ok := table.Get(uint64(u.V))
			if ok && cur.(uint64) <= u.Label {
				return
			}
			b.labels.Put(uint64(u.V), u.Label)
			emit(u)
		})

	updates.Sink("count-updates", func(int, any) error { return nil })
	plan.MarkState("label-update")
	plan.CompensateExternally("fix-components via recovery.Job.Compensate")
	return plan
}

// Step implements the loop body for iterate.Loop. The plan reads label
// state at run time, so it is prepared once and reused every superstep.
// A mid-superstep abort needs no reconciliation here: the in-place
// label Puts the aborted plan applied are monotone min-candidates, and
// the bulk iteration re-reads and re-propagates every label on the next
// attempt anyway.
func (b *BulkCC) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	if b.prepared == nil {
		p, err := b.engine.Prepare(b.StepPlan())
		if err != nil {
			return iterate.StepStats{}, fmt.Errorf("cc: bulk superstep: %v", err)
		}
		b.prepared = p
	}
	stats, err := b.prepared.RunWithFault(ctx.ScheduledFault())
	if err != nil {
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("cc: bulk superstep: %w", err)
	}
	b.lastUpdates = stats.Outputs("label-update")
	return iterate.StepStats{
		Messages: stats.Outputs("label-to-neighbors"),
		Updates:  b.lastUpdates,
	}, nil
}

// SnapshotTo implements recovery.Job: the full labeling plus the
// convergence marker.
func (b *BulkCC) SnapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(b.lastUpdates); err != nil {
		return fmt.Errorf("cc: encoding bulk snapshot: %v", err)
	}
	return b.labels.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (b *BulkCC) RestoreFrom(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&b.lastUpdates); err != nil {
		return fmt.Errorf("cc: decoding bulk snapshot: %v", err)
	}
	return b.labels.DecodeFrom(dec)
}

// ClearPartitions implements recovery.Job.
func (b *BulkCC) ClearPartitions(parts []int) {
	for _, p := range parts {
		b.labels.ClearPartition(p)
	}
}

// Compensate implements recovery.Job: reset lost vertices to their
// initial labels. Because a bulk iteration recomputes the entire state
// every superstep, no re-activation is needed — this is the simplest
// possible compensation, at the price of bulk's per-superstep cost.
func (b *BulkCC) Compensate(lost []int) error {
	for _, p := range lost {
		for _, v := range b.owned[p] {
			b.labels.Put(uint64(v), uint64(v))
		}
	}
	b.lastUpdates = -1 // the compensated state is not converged
	return nil
}

// ResetToInitial implements recovery.Job.
func (b *BulkCC) ResetToInitial() error {
	b.labels.ClearAll()
	b.seedInitial()
	return nil
}

// RunBulk executes bulk-iteration Connected Components until a
// superstep changes no label.
func RunBulk(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	job := NewBulk(g, opts.Parallelism)
	cl := cluster.New(opts.Workers, opts.Parallelism)
	loop := &iterate.Loop{
		Name: job.Name(),
		Step: job.Step,
		// A bulk iteration cannot detect convergence before running: it
		// stops after the first superstep that updates nothing.
		Done:     func(int) bool { return job.Converged() },
		Job:      job,
		Policy:   opts.Policy,
		Cluster:  cl,
		Injector: opts.Injector,
		MaxTicks: opts.MaxTicks,
		OnSample: opts.OnSample,
	}
	res, err := loop.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Components: job.Components(), Cluster: cl}, nil
}
