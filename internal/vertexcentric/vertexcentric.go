// Package vertexcentric offers a Pregel-style "think like a vertex"
// programming layer on top of the delta-iteration runtime, with the
// paper's optimistic recovery generalised: any vertex program that
// supplies a per-vertex compensation (re-initialise lost state) and
// reactivation (re-send messages) recovers from failures without
// checkpoints, exactly like fix-components does for Connected
// Components.
package vertexcentric

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"optiflow/internal/cluster"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/state"
)

// Outbound is a message in flight to a vertex.
type Outbound[M any] struct {
	To  graph.VertexID
	Msg M
}

// Program defines a vertex-centric computation with optimistic
// recovery hooks. S is the vertex state type, M the message type; both
// must be gob-encodable for checkpoint support.
type Program[S, M any] struct {
	// Name identifies the job.
	Name string
	// Init returns vertex v's initial state and initial outbound
	// messages (the seed of the first superstep).
	Init func(v graph.VertexID) (S, []Outbound[M])
	// Compute processes v's incoming messages. It returns the new state
	// and whether it changed; messages are sent through send. Only
	// vertices with pending messages are computed (delta semantics).
	Compute func(v graph.VertexID, st S, msgs []M, send func(to graph.VertexID, m M)) (S, bool)
	// Combine optionally merges two messages for the same destination,
	// reducing shuffle volume (a combiner in dataflow terms).
	Combine func(a, b M) M
	// Compensate re-initialises a lost vertex — the generalised
	// fix-components/fix-ranks. Required for optimistic recovery.
	Compensate func(v graph.VertexID) S
	// Reactivate is invoked during recovery for restored vertices and
	// for surviving vertices with an out-edge into a lost partition; it
	// typically re-sends the messages the vertex would have sent on its
	// last change.
	Reactivate func(v graph.VertexID, st S, send func(to graph.VertexID, m M))
}

// Runner executes a Program; it implements recovery.Job.
type Runner[S, M any] struct {
	prog   Program[S, M]
	g      *graph.Graph
	par    int
	engine *exec.Engine

	states *state.Store[S]
	inbox  *state.Workset[Outbound[M]]
	next   *state.Workset[Outbound[M]]
	owned  [][]graph.VertexID

	// Accumulator replicas for confined recovery (see confined.go);
	// nil unless EnableAccumulatorLog was called.
	acc      []map[uint64]M
	accValid []bool
}

// NewRunner initialises states and the first inbox from prog.Init.
func NewRunner[S, M any](prog Program[S, M], g *graph.Graph, parallelism int) *Runner[S, M] {
	if parallelism < 1 {
		parallelism = 1
	}
	r := &Runner[S, M]{
		prog:   prog,
		g:      g,
		par:    parallelism,
		engine: &exec.Engine{Parallelism: parallelism},
		states: state.NewStore[S]("vertex-states", parallelism),
		inbox:  state.NewWorkset[Outbound[M]]("inbox", parallelism),
		next:   state.NewWorkset[Outbound[M]]("next-inbox", parallelism),
		owned:  graph.PartitionVertices(g, parallelism),
	}
	r.seedInitial()
	return r
}

func (r *Runner[S, M]) seedInitial() {
	for _, vs := range r.owned {
		for _, v := range vs {
			st, out := r.prog.Init(v)
			r.states.Put(uint64(v), st)
			for _, o := range out {
				r.deliver(o)
			}
		}
	}
}

func (r *Runner[S, M]) deliver(o Outbound[M]) {
	p := graph.Partition(o.To, r.par)
	r.inbox.Add(p, o)
	if r.acc != nil {
		r.logAccumulator(o.To, o.Msg)
	}
}

// Name implements recovery.Job.
func (r *Runner[S, M]) Name() string { return r.prog.Name }

// StateMap materialises vertex states as a map.
func (r *Runner[S, M]) StateMap() map[graph.VertexID]S {
	out := make(map[graph.VertexID]S, r.g.NumVertices())
	r.states.Range(func(k uint64, v S) bool {
		out[graph.VertexID(k)] = v
		return true
	})
	return out
}

// InboxLen returns the number of pending messages; the computation
// terminates when it reaches zero.
func (r *Runner[S, M]) InboxLen() int { return r.inbox.Len() }

func byTo[M any](rec any) uint64 { return uint64(rec.(Outbound[M]).To) }

type gathered[M any] struct {
	to   graph.VertexID
	msgs []M
}

func (r *Runner[S, M]) StepPlan() *dataflow.Plan {
	plan := dataflow.NewPlan(r.prog.Name + "-superstep")

	msgs := plan.Source("inbox", func(part, _ int, emit dataflow.Emit) error {
		for _, o := range r.inbox.Items(part) {
			emit(o)
		}
		return nil
	})

	gather := msgs.ReduceBy("gather", byTo[M], func(key uint64, vals []any, emit dataflow.Emit) {
		g := gathered[M]{to: graph.VertexID(key)}
		if r.prog.Combine != nil {
			combined := vals[0].(Outbound[M]).Msg
			for _, v := range vals[1:] {
				combined = r.prog.Combine(combined, v.(Outbound[M]).Msg)
			}
			g.msgs = []M{combined}
		} else {
			g.msgs = make([]M, len(vals))
			for i, v := range vals {
				g.msgs[i] = v.(Outbound[M]).Msg
			}
		}
		emit(g)
	}).HintKeyCardinality(r.g.NumVertices()/r.par + 1)

	compute := gather.LookupJoin("compute", "vertex-states",
		func(rec any) uint64 { return uint64(rec.(gathered[M]).to) },
		func(part, _ int) dataflow.Table { return r.states.Table(part) },
		func(rec any, table dataflow.Table, emit dataflow.Emit) {
			g := rec.(gathered[M])
			cur, ok := table.Get(uint64(g.to))
			if !ok {
				return // vertex unknown (no state): drop
			}
			send := func(to graph.VertexID, m M) { emit(Outbound[M]{To: to, Msg: m}) }
			st, changed := r.prog.Compute(g.to, cur.(S), g.msgs, send)
			if changed {
				r.states.Put(uint64(g.to), st)
			}
		})

	routed := compute.PartitionBy("route", byTo[M])
	routed.Sink("collect-inbox", func(part int, rec any) error {
		o := rec.(Outbound[M])
		r.next.Add(part, o)
		if r.acc != nil {
			// Fold every delivered message into the replica slot for
			// confined recovery — delivery time, not gather time, so the
			// log also covers messages a crash destroys before they are
			// gathered. The sink task of partition `part` is the slot's
			// only writer during the superstep.
			r.logAccumulator(o.To, o.Msg)
		}
		return nil
	})
	plan.MarkState("compute")
	plan.CompensateExternally("program-level compensation / confined recovery")
	return plan
}

// Step implements the loop body for iterate.Loop.
func (r *Runner[S, M]) Step(*iterate.Context) (iterate.StepStats, error) {
	stats, err := r.engine.Run(r.StepPlan())
	if err != nil {
		return iterate.StepStats{}, fmt.Errorf("vertexcentric: superstep of %s: %v", r.prog.Name, err)
	}
	r.inbox.Swap(r.next)
	r.next.ClearAll()
	return iterate.StepStats{
		Messages: stats.Outputs("compute"),
		Updates:  stats.Outputs("gather"),
	}, nil
}

// SnapshotTo implements recovery.Job.
func (r *Runner[S, M]) SnapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := r.states.EncodeTo(enc); err != nil {
		return err
	}
	return r.inbox.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (r *Runner[S, M]) RestoreFrom(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := r.states.DecodeFrom(dec); err != nil {
		return err
	}
	if err := r.inbox.DecodeFrom(dec); err != nil {
		return err
	}
	r.next.ClearAll()
	// Snapshots do not cover the accumulator replicas; a restored state
	// no longer matches their history.
	r.invalidateAccumulators()
	return nil
}

// ClearPartitions implements recovery.Job.
func (r *Runner[S, M]) ClearPartitions(parts []int) {
	for _, p := range parts {
		r.states.ClearPartition(p)
		r.inbox.ClearPartition(p)
	}
	r.clearAccumulators(parts)
}

// Compensate implements recovery.Job: re-initialise lost vertices with
// prog.Compensate, then reactivate them and the surviving vertices with
// an out-edge into a lost partition — the vertices whose messages the
// restored ones are missing — so the fixpoint propagation resumes.
func (r *Runner[S, M]) Compensate(lost []int) error {
	if r.prog.Compensate == nil {
		return fmt.Errorf("vertexcentric: program %s has no compensation function", r.prog.Name)
	}
	lostSet := make([]bool, r.par)
	for _, p := range lost {
		lostSet[p] = true
		for _, v := range r.owned[p] {
			r.states.Put(uint64(v), r.prog.Compensate(v))
		}
	}
	if r.prog.Reactivate == nil {
		return nil
	}
	send := func(to graph.VertexID, m M) { r.deliver(Outbound[M]{To: to, Msg: m}) }
	intoLost := func(n graph.VertexID) bool { return lostSet[graph.Partition(n, r.par)] }
	for p, vs := range r.owned {
		for _, v := range vs {
			if !lostSet[p] && !slices.ContainsFunc(r.g.OutNeighbors(v), intoLost) {
				continue
			}
			if st, ok := r.states.Get(uint64(v)); ok {
				r.prog.Reactivate(v, st, send)
			}
		}
	}
	return nil
}

// ResetToInitial implements recovery.Job.
func (r *Runner[S, M]) ResetToInitial() error {
	r.states.ClearAll()
	r.inbox.ClearAll()
	r.next.ClearAll()
	if r.acc != nil {
		// A fresh start resets the message history: the accumulators
		// become valid (and empty) again.
		for i := range r.acc {
			r.acc[i] = make(map[uint64]M)
			r.accValid[i] = true
		}
	}
	r.seedInitial()
	return nil
}

// Options configure a vertex-centric run (see cc.Options for the field
// semantics).
type Options struct {
	Parallelism int
	Workers     int
	Policy      recovery.Policy
	Injector    failure.Injector
	OnSample    func(iterate.Sample)
	MaxTicks    int
	// AccumulatorLog enables confined recovery support (see
	// EnableAccumulatorLog); requires the program to define Combine and
	// is typically paired with Policy: recovery.Confined{}.
	AccumulatorLog bool
}

// Result bundles the loop outcome with the runner for state access.
type Result[S, M any] struct {
	*iterate.Result
	// States holds the final vertex states.
	States map[graph.VertexID]S
	// Cluster exposes membership events.
	Cluster cluster.Interface
}

// Run executes the program until no messages remain.
func Run[S, M any](prog Program[S, M], g *graph.Graph, opts Options) (*Result[S, M], error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = opts.Parallelism
	}
	if opts.Policy == nil {
		opts.Policy = recovery.Optimistic{}
	}
	runner := NewRunner(prog, g, opts.Parallelism)
	if opts.AccumulatorLog {
		if err := runner.EnableAccumulatorLog(); err != nil {
			return nil, err
		}
	}
	cl := cluster.New(opts.Workers, opts.Parallelism)
	loop := &iterate.Loop{
		Name:     prog.Name,
		Step:     runner.Step,
		Done:     iterate.DeltaDone(runner.InboxLen),
		Job:      runner,
		Policy:   opts.Policy,
		Cluster:  cl,
		Injector: opts.Injector,
		OnSample: opts.OnSample,
		MaxTicks: opts.MaxTicks,
	}
	res, err := loop.Run()
	if err != nil {
		return nil, err
	}
	return &Result[S, M]{Result: res, States: runner.StateMap(), Cluster: cl}, nil
}
