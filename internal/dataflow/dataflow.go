// Package dataflow models a data analysis program as a directed acyclic
// graph of operators, mirroring the programming model of Apache Flink
// that the paper builds on (§2.1): vertices are tasks running
// user-defined functions, edges are data exchanges. Plans are built
// through the Dataset API and executed by package exec.
package dataflow

import (
	"fmt"
	"sort"
	"strings"
)

// Emit hands a record to the downstream operators.
type Emit func(rec any)

// KeyFunc extracts the partitioning/grouping key of a record.
type KeyFunc func(rec any) uint64

// SourceFunc produces the records of partition part out of nparts. It
// must be safe for concurrent invocation across distinct partitions.
type SourceFunc func(part, nparts int, emit Emit) error

// SinkFunc consumes a record in partition part. Each partition is
// driven by exactly one task, so per-partition state needs no locking.
type SinkFunc func(part int, rec any) error

// MapFunc transforms one record into one record.
type MapFunc func(rec any) any

// FlatMapFunc transforms one record into zero or more records.
type FlatMapFunc func(rec any, emit Emit)

// FilterFunc keeps records for which it returns true.
type FilterFunc func(rec any) bool

// ReduceFunc folds all records of a group into zero or more records.
// The vals slice is owned by the engine and only valid for the duration
// of the call: implementations must not retain it (or a reslice of it)
// after returning — copy the records out instead (see the exchange
// memory model in DESIGN.md; optiflow-vet enforces this).
type ReduceFunc func(key uint64, vals []any, emit Emit)

// CombineFunc incrementally folds one record into a group's running
// accumulator — the streaming alternative to ReduceFunc for
// aggregations that do not need the whole group at once (min, sum,
// count, ...). acc is nil for the first record of a group; the returned
// value becomes the new accumulator. Records arrive in exchange order,
// so a CombineFunc must be insensitive to record order to keep results
// deterministic (associative + commutative folds qualify).
type CombineFunc func(acc any, rec any) any

// FinishFunc converts a group's final accumulator into zero or more
// output records once the input is exhausted.
type FinishFunc func(key uint64, acc any, emit Emit)

// JoinFunc combines one record from each side of an equi-join.
type JoinFunc func(left, right any, emit Emit)

// CoGroupFunc receives all records of both sides sharing a key.
type CoGroupFunc func(key uint64, lefts, rights []any, emit Emit)

// Table is a read-only keyed view used by Lookup operators — the
// analogue of Flink's indexed solution set and of cached loop-invariant
// join sides (the graph/links datasets in Fig. 1).
type Table interface {
	Get(key uint64) (any, bool)
}

// TableProvider resolves the Table for a partition at execution time,
// when the engine's parallelism is known. The provider's partitioning
// must agree with graph.Partition so hash-routed records meet the
// partition that owns their key.
type TableProvider func(part, nparts int) Table

// LookupFunc joins a streamed record against the partition-local Table.
type LookupFunc func(rec any, table Table, emit Emit)

// Kind enumerates operator kinds.
type Kind int

// Operator kinds.
const (
	KindSource Kind = iota
	KindMap
	KindFlatMap
	KindFilter
	KindReduce
	KindJoin
	KindCoGroup
	KindLookup
	KindUnion
	KindSink
)

var kindNames = map[Kind]string{
	KindSource:  "Source",
	KindMap:     "Map",
	KindFlatMap: "FlatMap",
	KindFilter:  "Filter",
	KindReduce:  "Reduce",
	KindJoin:    "Join",
	KindCoGroup: "CoGroup",
	KindLookup:  "Join", // solution-set index join renders as a join, per Fig. 1
	KindUnion:   "Union",
	KindSink:    "Sink",
}

// String returns the operator kind name as shown in plan explains.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Exchange is the data exchange pattern of a plan edge.
type Exchange int

// Exchange patterns.
const (
	// ExForward keeps records in their producing partition.
	ExForward Exchange = iota
	// ExHash routes each record to the partition owning its key.
	ExHash
	// ExBroadcast replicates every record to all partitions.
	ExBroadcast
	// ExRebalance distributes records round-robin.
	ExRebalance
)

// String names the exchange pattern as shown in plan explains.
func (e Exchange) String() string {
	switch e {
	case ExForward:
		return "forward"
	case ExHash:
		return "hash"
	case ExBroadcast:
		return "broadcast"
	case ExRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("Exchange(%d)", int(e))
	}
}

// JoinType selects inner or left-outer join semantics.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	// JoinLeftOuter emits unmatched probe-side records with a nil build
	// side.
	JoinLeftOuter
)

// Node is one operator of a plan. Nodes are created through the Dataset
// API; their fields are read by the execution engine.
type Node struct {
	ID   int
	Name string
	Kind Kind

	Inputs     []*Node
	InExchange []Exchange
	InKeys     []KeyFunc // per input; required for ExHash and grouping

	Source   SourceFunc
	MapFn    MapFunc
	FlatMap  FlatMapFunc
	Filter   FilterFunc
	Reduce   ReduceFunc
	Combine  CombineFunc // streaming alternative to Reduce (with Finish)
	Finish   FinishFunc
	Join     JoinFunc
	JoinType JoinType
	CoGroup  CoGroupFunc
	Lookup   LookupFunc
	Table    TableProvider
	Sink     SinkFunc

	// Compensation marks the node as a compensation function: it is
	// absent from failure-free execution and invoked only during
	// optimistic recovery (the dotted brown boxes of Fig. 1). Such nodes
	// are rendered by Explain but skipped by the engine.
	Compensation bool

	// State marks the node as carrying or mutating iteration state (a
	// solution set, rank vector, workset, ...). Optimistic recovery is
	// only safe when every such node is covered by a compensation
	// function; package planlint checks exactly that.
	State bool

	// KeyCard is an optional hint: the expected number of distinct
	// grouping keys per task. Reduce tasks pre-size their hash maps
	// from it, skipping incremental rehash growth on the hot path.
	// Zero means unknown.
	KeyCard int

	// tableLabel names the table side of a lookup join in explains
	// (e.g. "labels", "graph", "links" in Fig. 1).
	tableLabel string
}

// Plan is a DAG of operators with at least one sink.
type Plan struct {
	Name  string
	Nodes []*Node

	// ExternalCompensation documents that the iteration state mutated by
	// this plan is compensated outside the plan (typically by the job's
	// recovery.Job.Compensate). Set via CompensateExternally; read by
	// package planlint to downgrade the missing-compensation error.
	ExternalCompensation string

	nextID   int
	byName   map[string]*Node
	markErrs []error
}

// NewPlan returns an empty plan.
func NewPlan(name string) *Plan {
	return &Plan{Name: name, byName: make(map[string]*Node)}
}

// Dataset is a handle to a node's output stream during plan building.
type Dataset struct {
	plan *Plan
	node *Node
}

// Node exposes the underlying plan node, mainly for tests and explain
// tooling.
func (d *Dataset) Node() *Node { return d.node }

func (p *Plan) add(n *Node) *Node {
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s-%d", strings.ToLower(n.Kind.String()), p.nextID)
	}
	if _, dup := p.byName[n.Name]; dup {
		panic(fmt.Sprintf("dataflow: duplicate operator name %q in plan %q", n.Name, p.Name))
	}
	n.ID = p.nextID
	p.nextID++
	p.Nodes = append(p.Nodes, n)
	p.byName[n.Name] = n
	return n
}

// NodeByName returns the node with the given name, or nil.
func (p *Plan) NodeByName(name string) *Node { return p.byName[name] }

// Source adds a data source.
func (p *Plan) Source(name string, fn SourceFunc) *Dataset {
	n := p.add(&Node{Name: name, Kind: KindSource, Source: fn})
	return &Dataset{plan: p, node: n}
}

// Map applies fn to every record.
func (d *Dataset) Map(name string, fn MapFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindMap, MapFn: fn,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExForward}, InKeys: []KeyFunc{nil},
	})
	return &Dataset{plan: d.plan, node: n}
}

// FlatMap applies fn to every record, emitting any number of records.
func (d *Dataset) FlatMap(name string, fn FlatMapFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindFlatMap, FlatMap: fn,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExForward}, InKeys: []KeyFunc{nil},
	})
	return &Dataset{plan: d.plan, node: n}
}

// Filter keeps records for which fn returns true.
func (d *Dataset) Filter(name string, fn FilterFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindFilter, Filter: fn,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExForward}, InKeys: []KeyFunc{nil},
	})
	return &Dataset{plan: d.plan, node: n}
}

// HintKeyCardinality records the expected number of distinct grouping
// keys per task for the dataset's operator (a reduce, typically), so
// the engine pre-sizes its hash maps instead of growing them through
// rehashes. The hint is advisory: a wrong value costs memory or
// rehashes, never correctness. Returns the dataset for chaining.
func (d *Dataset) HintKeyCardinality(n int) *Dataset {
	if n > 0 {
		d.node.KeyCard = n
	}
	return d
}

// ReduceBy hash-partitions records by key and folds each group with fn.
func (d *Dataset) ReduceBy(name string, key KeyFunc, fn ReduceFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindReduce, Reduce: fn,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExHash}, InKeys: []KeyFunc{key},
	})
	return &Dataset{plan: d.plan, node: n}
}

// ReduceByCombining is ReduceBy for order-insensitive aggregations: it
// hash-partitions records by key and folds each group incrementally
// through combine as records arrive, emitting results via finish once
// the input is exhausted. Unlike ReduceBy it never materialises a
// group's records, so memory stays proportional to the number of
// distinct keys instead of the number of records — the streaming
// hash-aggregation path of the engine.
func (d *Dataset) ReduceByCombining(name string, key KeyFunc, combine CombineFunc, finish FinishFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindReduce, Combine: combine, Finish: finish,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExHash}, InKeys: []KeyFunc{key},
	})
	return &Dataset{plan: d.plan, node: n}
}

// LocalReduceByCombining folds groups within each producing partition,
// without a shuffle — a combiner — with the streaming accumulator
// interface of ReduceByCombining: it folds records as they arrive
// instead of materialising each partition-local group. Placing one
// before a reduce on the same key pre-aggregates records before they
// cross the network, cutting shuffle volume exactly like Flink's
// combinable reduce.
func (d *Dataset) LocalReduceByCombining(name string, key KeyFunc, combine CombineFunc, finish FinishFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindReduce, Combine: combine, Finish: finish,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExForward}, InKeys: []KeyFunc{key},
	})
	return &Dataset{plan: d.plan, node: n}
}

// Join performs a partitioned hash equi-join: other (the build side) is
// consumed fully, then d (the probe side) streams through.
func (d *Dataset) Join(name string, other *Dataset, leftKey, rightKey KeyFunc, jt JoinType, fn JoinFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindJoin, Join: fn, JoinType: jt,
		Inputs:     []*Node{d.node, other.node},
		InExchange: []Exchange{ExHash, ExHash},
		InKeys:     []KeyFunc{leftKey, rightKey},
	})
	return &Dataset{plan: d.plan, node: n}
}

// CoGroup groups both inputs by key and hands each key's groups to fn.
func (d *Dataset) CoGroup(name string, other *Dataset, leftKey, rightKey KeyFunc, fn CoGroupFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindCoGroup, CoGroup: fn,
		Inputs:     []*Node{d.node, other.node},
		InExchange: []Exchange{ExHash, ExHash},
		InKeys:     []KeyFunc{leftKey, rightKey},
	})
	return &Dataset{plan: d.plan, node: n}
}

// LookupJoin hash-routes records by key and joins each against the
// partition-local table — Flink's solution-set index join and its
// cached loop-invariant build sides. tableName names the joined-against
// dataset in plan explains (e.g. "labels" or "graph" in Fig. 1a).
func (d *Dataset) LookupJoin(name, tableName string, key KeyFunc, table TableProvider, fn LookupFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindLookup, Lookup: fn, Table: table,
		Inputs:     []*Node{d.node},
		InExchange: []Exchange{ExHash},
		InKeys:     []KeyFunc{key},
	})
	// A pseudo-source represents the table side so explains draw the
	// same shape as Fig. 1; the engine does not execute it.
	if tableName != "" {
		n.tableLabel = tableName
	}
	return &Dataset{plan: d.plan, node: n}
}

// Union merges two datasets of the same record type.
func (d *Dataset) Union(name string, other *Dataset) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindUnion,
		Inputs:     []*Node{d.node, other.node},
		InExchange: []Exchange{ExForward, ExForward},
		InKeys:     []KeyFunc{nil, nil},
	})
	return &Dataset{plan: d.plan, node: n}
}

// Rebalance redistributes records round-robin (a Map with rebalance
// exchange), breaking partition skew.
func (d *Dataset) Rebalance(name string) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindMap, MapFn: func(r any) any { return r },
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExRebalance}, InKeys: []KeyFunc{nil},
	})
	return &Dataset{plan: d.plan, node: n}
}

// PartitionBy hash-routes records to the partition owning their key
// without transforming them.
func (d *Dataset) PartitionBy(name string, key KeyFunc) *Dataset {
	n := d.plan.add(&Node{
		Name: name, Kind: KindMap, MapFn: func(r any) any { return r },
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExHash}, InKeys: []KeyFunc{key},
	})
	return &Dataset{plan: d.plan, node: n}
}

// Sink terminates the dataset in a sink. Records arrive in their
// producing partition (forward exchange); use PartitionBy first to
// control placement.
func (d *Dataset) Sink(name string, fn SinkFunc) *Node {
	return d.plan.add(&Node{
		Name: name, Kind: KindSink, Sink: fn,
		Inputs: []*Node{d.node}, InExchange: []Exchange{ExForward}, InKeys: []KeyFunc{nil},
	})
}

// MarkCompensation marks the node with the given name as a compensation
// function (rendered dotted in explains, skipped during failure-free
// execution). Marking an unknown operator is recorded and reported by
// Validate rather than panicking, so a typo in a compensation wiring is
// caught before the plan runs, not mid-recovery.
func (p *Plan) MarkCompensation(name string) {
	n := p.byName[name]
	if n == nil {
		p.markErrs = append(p.markErrs,
			fmt.Errorf("dataflow: MarkCompensation: no operator %q in plan %q", name, p.Name))
		return
	}
	n.Compensation = true
}

// MarkState marks the node with the given name as carrying or mutating
// iteration state. Like MarkCompensation, an unknown operator name is
// reported by Validate.
func (p *Plan) MarkState(name string) {
	n := p.byName[name]
	if n == nil {
		p.markErrs = append(p.markErrs,
			fmt.Errorf("dataflow: MarkState: no operator %q in plan %q", name, p.Name))
		return
	}
	n.State = true
}

// CompensateExternally documents that the iteration state this plan
// mutates is restored by machinery outside the plan (the job-level
// compensation function invoked by the recovery policy), with a short
// note naming it. planlint then reports the absence of an in-plan
// compensation operator as informational instead of an error.
func (p *Plan) CompensateExternally(note string) {
	p.ExternalCompensation = note
}

// Validate checks structural invariants: per-input metadata arity, UDF
// presence, at least one sink, key functions on hash edges, acyclicity,
// and that every MarkCompensation/MarkState named an existing operator.
func (p *Plan) Validate() error {
	if len(p.markErrs) > 0 {
		return p.markErrs[0]
	}
	if err := p.checkAcyclic(); err != nil {
		return err
	}
	sinks := 0
	for _, n := range p.Nodes {
		if len(n.Inputs) != len(n.InExchange) || len(n.Inputs) != len(n.InKeys) {
			return fmt.Errorf("dataflow: node %q: inputs/exchange/keys arity mismatch", n.Name)
		}
		for i, ex := range n.InExchange {
			if ex == ExHash && n.InKeys[i] == nil {
				return fmt.Errorf("dataflow: node %q input %d: hash exchange requires a key function", n.Name, i)
			}
		}
		switch n.Kind {
		case KindSource:
			if n.Source == nil {
				return fmt.Errorf("dataflow: source %q: missing SourceFunc", n.Name)
			}
			if len(n.Inputs) != 0 {
				return fmt.Errorf("dataflow: source %q: sources take no inputs", n.Name)
			}
		case KindMap:
			if n.MapFn == nil {
				return fmt.Errorf("dataflow: map %q: missing MapFunc", n.Name)
			}
		case KindFlatMap:
			if n.FlatMap == nil {
				return fmt.Errorf("dataflow: flatmap %q: missing FlatMapFunc", n.Name)
			}
		case KindFilter:
			if n.Filter == nil {
				return fmt.Errorf("dataflow: filter %q: missing FilterFunc", n.Name)
			}
		case KindReduce:
			if n.Reduce == nil && (n.Combine == nil || n.Finish == nil) {
				return fmt.Errorf("dataflow: reduce %q: needs a ReduceFunc or a Combine+Finish pair", n.Name)
			}
			if n.Reduce != nil && n.Combine != nil {
				return fmt.Errorf("dataflow: reduce %q: ReduceFunc and CombineFunc are mutually exclusive", n.Name)
			}
		case KindJoin:
			if n.Join == nil || len(n.Inputs) != 2 {
				return fmt.Errorf("dataflow: join %q: needs JoinFunc and two inputs", n.Name)
			}
		case KindCoGroup:
			if n.CoGroup == nil || len(n.Inputs) != 2 {
				return fmt.Errorf("dataflow: cogroup %q: needs CoGroupFunc and two inputs", n.Name)
			}
		case KindLookup:
			if n.Lookup == nil || n.Table == nil {
				return fmt.Errorf("dataflow: lookup join %q: needs LookupFunc and TableProvider", n.Name)
			}
		case KindSink:
			if n.Sink == nil {
				return fmt.Errorf("dataflow: sink %q: missing SinkFunc", n.Name)
			}
			sinks++
		}
	}
	if sinks == 0 {
		return fmt.Errorf("dataflow: plan %q has no sink", p.Name)
	}
	return nil
}

// checkAcyclic rejects self-loops and cycles explicitly. The Dataset
// API cannot create them, but hand-assembled or mutated plans can, and
// before this check they only surfaced as topo-sort panics deep inside
// the engine.
func (p *Plan) checkAcyclic() error {
	const (
		unvisited = iota
		visiting
		done
	)
	color := make(map[int]int, len(p.Nodes))
	var path []string
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch color[n.ID] {
		case visiting:
			return fmt.Errorf("dataflow: plan %q has a cycle through %q (path %s)",
				p.Name, n.Name, strings.Join(append(path, n.Name), " -> "))
		case done:
			return nil
		}
		for _, in := range n.Inputs {
			if in == n {
				return fmt.Errorf("dataflow: plan %q: operator %q is a self-loop", p.Name, n.Name)
			}
		}
		color[n.ID] = visiting
		path = append(path, n.Name)
		for _, in := range n.Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		color[n.ID] = done
		return nil
	}
	for _, n := range p.Nodes {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Consumers returns, per node ID, the list of (consumer, input slot)
// pairs, in deterministic order.
func (p *Plan) Consumers() map[int][]EdgeRef {
	out := make(map[int][]EdgeRef)
	for _, n := range p.Nodes {
		for slot, in := range n.Inputs {
			out[in.ID] = append(out[in.ID], EdgeRef{To: n, Slot: slot})
		}
	}
	for _, refs := range out {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].To.ID != refs[j].To.ID {
				return refs[i].To.ID < refs[j].To.ID
			}
			return refs[i].Slot < refs[j].Slot
		})
	}
	return out
}

// EdgeRef identifies a consumer edge: the consuming node and which of
// its input slots the edge feeds.
type EdgeRef struct {
	To   *Node
	Slot int
}

// EdgeName names the plan edge from producer to (consumer, slot) as it
// appears in execution statistics, e.g. "workset->candidate-label".
func EdgeName(from *Node, ref EdgeRef) string {
	if len(ref.To.Inputs) > 1 {
		return fmt.Sprintf("%s->%s#%d", from.Name, ref.To.Name, ref.Slot)
	}
	return fmt.Sprintf("%s->%s", from.Name, ref.To.Name)
}
