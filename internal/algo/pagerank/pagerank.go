// Package pagerank implements the PageRank algorithm of the
// demonstration (§2.2.2) as a bulk-iteration dataflow (Fig. 1b):
// find-neighbors join, recompute-ranks reduce, compare-to-old-rank join
// — plus the fix-ranks compensation function: after a failure the lost
// probability mass is redistributed uniformly over the vertices of the
// failed partitions, so ranks keep summing to one and the power
// iteration converges to the correct result without checkpoints.
package pagerank

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sync"

	"optiflow/internal/checkpoint"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// RankRec carries a vertex's current rank through the dataflow.
type RankRec struct {
	V    graph.VertexID
	Rank float64
}

// Contrib is a rank contribution sent to a neighbor — the "messages" of
// the PageRank iteration.
type Contrib struct {
	Dst graph.VertexID
	Val float64
}

// DefaultDamping is the damping factor used when none is configured.
const DefaultDamping = 0.85

// PR is a PageRank bulk iteration over a directed graph. It implements
// recovery.Job.
type PR struct {
	g        *graph.Graph
	par      int
	engine   *exec.Engine
	prepared *exec.Prepared // step plan, compiled once and reused
	d        float64

	ranks *state.Store[float64] // current rank vector
	sums  *state.Store[float64] // per-superstep scratch: damped contribution sums

	owned    [][]graph.VertexID
	dangling []graph.VertexID // vertices with no out-edges

	compensation Compensation
	combine      bool

	// col, when non-nil, holds the columnar engine internals and the
	// methods below dispatch to it; the boxed stores above stay nil.
	// Compensation functions and probes go through the mode-agnostic
	// rank accessors, so the public surface is identical either way.
	col       *colPR
	lastL1    float64
	restoreMu sync.Mutex // serialises the lastL1 reset on parallel restores
}

// SetLocalCombine toggles the pre-shuffle combiner: contributions to
// the same target vertex are summed inside the producing partition
// before crossing the exchange, trading a little CPU for much less
// shuffle volume on skewed graphs. Toggling changes the plan shape, so
// the cached prepared plan is invalidated.
func (pr *PR) SetLocalCombine(on bool) {
	if on != pr.combine {
		pr.prepared = nil
	}
	pr.combine = on
}

// New prepares a PageRank run with uniform initial ranks 1/n.
func New(g *graph.Graph, parallelism int, damping float64, comp Compensation) *PR {
	if parallelism < 1 {
		parallelism = 1
	}
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	if comp == nil {
		comp = UniformRedistribution
	}
	pr := &PR{
		g:            g,
		par:          parallelism,
		engine:       &exec.Engine{Parallelism: parallelism},
		d:            damping,
		ranks:        state.NewStore[float64]("ranks", parallelism),
		sums:         state.NewStore[float64]("rank-sums", parallelism),
		owned:        graph.PartitionVertices(g, parallelism),
		compensation: comp,
		lastL1:       math.Inf(1),
	}
	for _, v := range g.Vertices() {
		if g.OutDegree(v) == 0 {
			pr.dangling = append(pr.dangling, v)
		}
	}
	pr.seedInitial()
	return pr
}

// NewColumnar prepares a PageRank run on the typed columnar engine:
// same iteration, same compensation contract, no per-record boxing.
func NewColumnar(g *graph.Graph, parallelism int, damping float64, comp Compensation) *PR {
	if parallelism < 1 {
		parallelism = 1
	}
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	if comp == nil {
		comp = UniformRedistribution
	}
	pr := &PR{
		g:            g,
		par:          parallelism,
		d:            damping,
		owned:        graph.PartitionVertices(g, parallelism),
		compensation: comp,
		lastL1:       math.Inf(1),
		col:          newColPR(g, parallelism, nil),
	}
	for _, v := range g.Vertices() {
		if g.OutDegree(v) == 0 {
			pr.dangling = append(pr.dangling, v)
		}
	}
	pr.seedInitial()
	return pr
}

// Columnar reports whether the job runs on the columnar engine.
func (pr *PR) Columnar() bool { return pr.col != nil }

func (pr *PR) seedInitial() {
	if pr.col != nil {
		pr.col.seedInitial()
		pr.lastL1 = math.Inf(1)
		return
	}
	n := float64(pr.g.NumVertices())
	for _, v := range pr.g.Vertices() {
		pr.ranks.Put(uint64(v), 1/n)
	}
	pr.lastL1 = math.Inf(1)
}

// putRank writes one vertex rank in whichever representation is live;
// compensation functions use it so one implementation serves both
// paths.
func (pr *PR) putRank(v graph.VertexID, r float64) {
	if pr.col != nil {
		pr.col.ranks.Put(uint64(v), r)
		return
	}
	pr.ranks.Put(uint64(v), r)
}

// rangeRanks iterates every (vertex, rank) pair in whichever
// representation is live.
func (pr *PR) rangeRanks(fn func(k uint64, v float64) bool) {
	if pr.col != nil {
		pr.col.ranks.Range(fn)
		return
	}
	pr.ranks.Range(fn)
}

// Name implements recovery.Job.
func (pr *PR) Name() string { return "pagerank" }

// Ranks returns the boxed rank store; nil on the columnar path, whose
// ranks live in a dense column store — use RankVector for a
// representation-agnostic view.
func (pr *PR) Ranks() *state.Store[float64] { return pr.ranks }

// RankVector materialises the current ranks as a map.
func (pr *PR) RankVector() map[graph.VertexID]float64 {
	if pr.col != nil {
		return pr.col.rankVector()
	}
	out := make(map[graph.VertexID]float64, pr.g.NumVertices())
	pr.ranks.Range(func(k uint64, v float64) bool {
		out[graph.VertexID(k)] = v
		return true
	})
	return out
}

// LastL1 returns the L1 norm of the last superstep's rank delta — the
// demo's bottom-right plot (its spikes reveal failures).
func (pr *PR) LastL1() float64 { return pr.lastL1 }

// RankSum returns the total probability mass (1 in a consistent state).
func (pr *PR) RankSum() float64 {
	s := 0.0
	pr.rangeRanks(func(_ uint64, v float64) bool { s += v; return true })
	return s
}

// ConvergedCount counts vertices whose rank is within eps of the
// precomputed true rank — the demo's bottom-left plot.
func (pr *PR) ConvergedCount(truth map[graph.VertexID]float64, eps float64) int {
	n := 0
	pr.rangeRanks(func(k uint64, v float64) bool {
		if math.Abs(truth[graph.VertexID(k)]-v) < eps {
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

func byDst(rec any) uint64 { return uint64(rec.(Contrib).Dst) }
func byV(rec any) uint64   { return uint64(rec.(RankRec).V) }

// StepPlan builds the executable bulk-iteration body of Fig. 1b.
// Exported for the plan tooling (optiflow-graph) and the planlint
// test sweep.
func (pr *PR) StepPlan() *dataflow.Plan {
	plan := dataflow.NewPlan("pagerank-step")
	adj := adjacencyTable{g: pr.g}
	n := float64(pr.g.NumVertices())
	base := (1 - pr.d) / n

	ranks := plan.Source("ranks", func(part, _ int, emit dataflow.Emit) error {
		pr.ranks.RangePartition(part, func(k uint64, v float64) bool {
			emit(RankRec{V: graph.VertexID(k), Rank: v})
			return true
		})
		return nil
	})

	// Every vertex propagates a fraction of its rank to its neighbors,
	// proportionally to the out-edge weights (uniform when unweighted).
	contribs := ranks.LookupJoin("find-neighbors", "links", byV,
		func(int, int) dataflow.Table { return adj },
		func(rec any, table dataflow.Table, emit dataflow.Emit) {
			r := rec.(RankRec)
			if _, ok := table.Get(uint64(r.V)); !ok {
				return // dangling: mass redistributed by the driver
			}
			total := 0.0
			pr.g.OutEdges(r.V, func(_ graph.VertexID, w float64) { total += w })
			if total <= 0 {
				return
			}
			pr.g.OutEdges(r.V, func(dst graph.VertexID, w float64) {
				emit(Contrib{Dst: dst, Val: r.Rank * w / total})
			})
		})

	// Contribution sums fold incrementally as records arrive: the
	// engine keeps one accumulator per target vertex instead of
	// materializing every contribution. The fold applies additions in
	// the same arrival order the materializing reducer summed in, so
	// results are unchanged.
	if pr.combine {
		contribs = contribs.LocalReduceByCombining("combine-contribs", byDst,
			func(acc, rec any) any {
				c := rec.(Contrib)
				if acc == nil {
					return &c
				}
				acc.(*Contrib).Val += c.Val
				return acc
			},
			func(key uint64, acc any, emit dataflow.Emit) {
				emit(Contrib{Dst: graph.VertexID(key), Val: acc.(*Contrib).Val})
			}).HintKeyCardinality(pr.g.NumVertices()/pr.par + 1)
	}

	newRanks := contribs.ReduceByCombining("recompute-ranks", byDst,
		func(acc, rec any) any {
			c := rec.(Contrib)
			if acc == nil {
				return &c
			}
			acc.(*Contrib).Val += c.Val
			return acc
		},
		func(key uint64, acc any, emit dataflow.Emit) {
			emit(RankRec{V: graph.VertexID(key), Rank: base + pr.d*acc.(*Contrib).Val})
		}).HintKeyCardinality(pr.g.NumVertices()/pr.par + 1)

	// Compare against the previous rank; the dangling share is added by
	// the driver, which owns the global aggregate.
	compared := newRanks.LookupJoin("compare-to-old-rank", "ranks", byV,
		func(part, _ int) dataflow.Table { return pr.ranks.Table(part) },
		func(rec any, _ dataflow.Table, emit dataflow.Emit) {
			emit(rec)
		})

	compared.Sink("collect-ranks", func(_ int, rec any) error {
		r := rec.(RankRec)
		pr.sums.Put(uint64(r.V), r.Rank)
		return nil
	})
	plan.MarkState("collect-ranks")
	plan.CompensateExternally("fix-ranks via recovery.Job.Compensate")
	return plan
}

// Step implements the loop body for iterate.Loop: one PageRank
// superstep — propagate contributions, recompute ranks, fold in the
// dangling mass, and commit the new rank vector.
// A mid-superstep abort needs no reconciliation here: the aborted plan
// only wrote the sums scratch store, which is cleared at the start of
// every attempt; the committed rank vector is untouched until the
// post-run fold below.
func (pr *PR) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	if pr.col != nil {
		var fault *exec.FaultInjection
		if ctx != nil {
			fault = ctx.Fault
		}
		messages, shuffled, l1, danglingMass, err := pr.col.runStep(pr, fault)
		if err != nil {
			return iterate.StepStats{}, err
		}
		pr.lastL1 = l1
		return iterate.StepStats{
			Messages: messages,
			Updates:  int64(pr.g.NumVertices()),
			Extra:    map[string]float64{"l1": l1, "dangling": danglingMass, "shuffled": float64(shuffled)},
		}, nil
	}
	n := float64(pr.g.NumVertices())
	base := (1 - pr.d) / n
	danglingMass := 0.0
	for _, v := range pr.dangling {
		if r, ok := pr.ranks.Get(uint64(v)); ok {
			danglingMass += r
		}
	}
	share := pr.d * danglingMass / n

	pr.sums.ClearAll()
	// The plan reads rank state at run time, so it is prepared once
	// and reused every superstep (until SetLocalCombine reshapes it).
	if pr.prepared == nil {
		p, err := pr.engine.Prepare(pr.StepPlan())
		if err != nil {
			return iterate.StepStats{}, fmt.Errorf("pagerank: superstep: %v", err)
		}
		pr.prepared = p
	}
	var fault *exec.FaultInjection
	if ctx != nil {
		fault = ctx.Fault
	}
	stats, err := pr.prepared.RunWithFault(fault)
	if err != nil {
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("pagerank: superstep: %w", err)
	}

	l1 := 0.0
	for _, v := range pr.g.Vertices() {
		nv, ok := pr.sums.Get(uint64(v))
		if !ok {
			nv = base // no incoming contributions
		}
		nv += share
		old, _ := pr.ranks.Get(uint64(v))
		l1 += math.Abs(nv - old)
		pr.ranks.Put(uint64(v), nv)
	}
	pr.lastL1 = l1

	shuffled := stats.Outputs("find-neighbors")
	if pr.combine {
		shuffled = stats.Outputs("combine-contribs")
	}
	return iterate.StepStats{
		Messages: stats.Outputs("find-neighbors"),
		Updates:  int64(pr.g.NumVertices()),
		Extra:    map[string]float64{"l1": l1, "dangling": danglingMass, "shuffled": float64(shuffled)},
	}, nil
}

// SnapshotTo implements recovery.Job: the rank vector plus the
// convergence marker.
func (pr *PR) SnapshotTo(buf *bytes.Buffer) error {
	if pr.col != nil {
		return pr.col.snapshotTo(pr, buf)
	}
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(pr.lastL1); err != nil {
		return fmt.Errorf("pagerank: encoding snapshot: %v", err)
	}
	return pr.ranks.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (pr *PR) RestoreFrom(data []byte) error {
	if pr.col != nil {
		return pr.col.restoreFrom(pr, data)
	}
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&pr.lastL1); err != nil {
		return fmt.Errorf("pagerank: decoding snapshot: %v", err)
	}
	return pr.ranks.DecodeFrom(dec)
}

// ClearPartitions implements recovery.Job: the crash destroys the rank
// partitions of the failed workers.
func (pr *PR) ClearPartitions(parts []int) {
	if pr.col != nil {
		pr.col.clearPartitions(parts)
		return
	}
	for _, p := range parts {
		pr.ranks.ClearPartition(p)
	}
}

// Compensate implements recovery.Job via the configured compensation
// function (fix-ranks by default).
func (pr *PR) Compensate(lost []int) error {
	pr.lastL1 = math.Inf(1) // the compensated state is not converged
	return pr.compensation(pr, lost)
}

// PartitionVersions implements recovery.IncrementalJob. In a bulk
// iteration every rank partition changes every superstep, so
// incremental checkpoints degenerate to full ones — experiment E6
// quantifies exactly that contrast with the delta iteration.
func (pr *PR) PartitionVersions() []uint64 {
	if pr.col != nil {
		return pr.col.partitionVersions()
	}
	out := make([]uint64, pr.par)
	for p := range out {
		out[p] = pr.ranks.Version(p)
	}
	return out
}

// SnapshotPartition implements recovery.IncrementalJob.
func (pr *PR) SnapshotPartition(p int, buf *bytes.Buffer) error {
	if pr.col != nil {
		return pr.col.ranks.EncodePartition(p, gob.NewEncoder(buf))
	}
	return pr.ranks.EncodePartition(p, gob.NewEncoder(buf))
}

// RestorePartition implements recovery.IncrementalJob. The parallel
// restore path calls it concurrently for distinct partitions; rank
// state is per-partition, but the convergence marker is global and
// needs the lock.
func (pr *PR) RestorePartition(p int, data []byte) error {
	pr.restoreMu.Lock()
	pr.lastL1 = math.Inf(1) // the convergence marker is global; be safe
	pr.restoreMu.Unlock()
	if pr.col != nil {
		return pr.col.ranks.DecodePartition(p, gob.NewDecoder(bytes.NewReader(data)))
	}
	return pr.ranks.DecodePartition(p, gob.NewDecoder(bytes.NewReader(data)))
}

// ResetToInitial implements recovery.Job.
func (pr *PR) ResetToInitial() error {
	if pr.col != nil {
		pr.col.ranks.ClearAll()
		pr.seedInitial()
		return nil
	}
	pr.ranks.ClearAll()
	pr.seedInitial()
	return nil
}

// CaptureSnapshot implements recovery.AsyncJob: an O(partitions)
// copy-on-write view of the rank vector, safe to encode on background
// goroutines while the next superstep runs. Per-partition encoding
// matches SnapshotPartition byte for byte.
func (pr *PR) CaptureSnapshot() checkpoint.PartitionSnapshot {
	if pr.col != nil {
		return pr.col.captureSnapshot()
	}
	return prCapture{ranks: pr.ranks.SnapshotShared()}
}

type prCapture struct {
	ranks *state.Store[float64]
}

func (s prCapture) NumPartitions() int { return s.ranks.NumPartitions() }

func (s prCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	return s.ranks.EncodePartition(p, gob.NewEncoder(buf))
}

// FigurePlan reproduces Fig. 1(b): the conceptual bulk-iteration
// dataflow including the fix-ranks compensation map. For rendering
// only.
func FigurePlan() *dataflow.Plan {
	plan := dataflow.NewPlan("pagerank (Fig. 1b)")
	noopKey := func(any) uint64 { return 0 }
	ranks := plan.Source("ranks", func(int, int, dataflow.Emit) error { return nil })
	links := plan.Source("links", func(int, int, dataflow.Emit) error { return nil })

	fn := ranks.Join("find-neighbors", links, noopKey, noopKey, dataflow.JoinInner, func(any, any, dataflow.Emit) {})
	rr := fn.ReduceBy("recompute-ranks", noopKey, func(uint64, []any, dataflow.Emit) {})
	cmp := rr.Join("compare-to-old-rank", ranks, noopKey, noopKey, dataflow.JoinInner, func(any, any, dataflow.Emit) {})
	cmp.Sink("next-ranks", func(int, any) error { return nil })

	fix := ranks.Map("fix-ranks", func(r any) any { return r })
	fix.Sink("restored-ranks", func(int, any) error { return nil })
	plan.MarkState("ranks")
	plan.MarkCompensation("fix-ranks")
	return plan
}
