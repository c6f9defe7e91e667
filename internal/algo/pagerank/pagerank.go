// Package pagerank implements the PageRank algorithm of the
// demonstration (§2.2.2) as a bulk iteration (Fig. 1b): find-neighbors
// join, recompute-ranks reduce, compare-to-old-rank join — plus the
// fix-ranks compensation function: after a failure the lost probability
// mass is redistributed uniformly over the vertices of the failed
// partitions, so ranks keep summing to one and the power iteration
// converges to the correct result without checkpoints.
//
// There is one PageRank job. It runs on the typed columnar superstep
// engine: ranks live in a dense column store; the find-neighbors join
// is one multiply per vertex, its rank times a precomputed 1/outdeg (1/Σw
// on a weighted graph), whose product the engine sends along every
// out-edge (times the edge weight, if any); and contributions add into
// the engine's dense sum fold, whose Apply writes the new ranks.
// FigurePlan renders Fig. 1b.
package pagerank

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"

	"optiflow/internal/checkpoint"
	"optiflow/internal/colbytes"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// DefaultDamping is the damping factor used when none is configured.
const DefaultDamping = 0.85

// PR is a PageRank bulk iteration over a directed graph. It implements
// recovery.Job.
type PR struct {
	d  *graph.Dense
	pt *graph.Partitioning
	// parts lists the partitions this process computes: all in-process,
	// the hosted subset in a worker (see Hosted).
	parts []int

	engine *exec.ColEngine[float64]
	step   *exec.ColStep[float64] // built once, reused every superstep

	damping float64
	ranks   *state.DenseStore[float64] // current rank vector

	// apply's rank update, base + damping*sum + share, and its L1 delta.
	base, share, l1 float64

	danglingIdx []int32 // this process's vertices with no out-edges, ascending

	// inv[v] is what vertex v sends per unit of rank along each
	// out-edge, before the edge weight: 1/outdeg, 1/Σw on a weighted
	// graph, 0 for a sink or a total weight ≤ 0, whose rank flows
	// nowhere. srcIdx and srcVal are the columns source fills, sized at
	// build for the largest partition this process computes.
	inv    []float64
	srcIdx []int32
	srcVal []float64

	compensation Compensation

	lastL1    float64
	restoreMu sync.Mutex // serialises the lastL1 reset on parallel restores
}

// SetLocalCombine toggles the pre-shuffle combiner: contributions to
// the same target vertex are summed inside the producing partition
// before crossing the exchange, trading a little CPU for much less
// shuffle volume on skewed graphs.
func (pr *PR) SetLocalCombine(on bool) { pr.step.LocalFold = on }

// NewColumnar prepares a PageRank run with uniform initial ranks 1/n.
func NewColumnar(g *graph.Graph, parallelism int, damping float64, comp Compensation) *PR {
	if parallelism < 1 {
		parallelism = 1
	}
	if comp == nil {
		comp = UniformRedistribution
	}
	pr := newPR(g, parallelism, damping, nil)
	pr.compensation = comp
	return pr
}

// newPR builds the job over the listed partitions of g (nil means all
// of them) and seeds their superstep-zero state.
func newPR(g *graph.Graph, parallelism int, damping float64, parts []int) *PR {
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	if parts == nil {
		for p := 0; p < parallelism; p++ {
			parts = append(parts, p)
		}
	}
	mine, rows := make([]bool, parallelism), 0
	for _, p := range parts {
		mine[p], rows = true, max(rows, len(pt.Owned[p]))
	}
	pr := &PR{
		d:       d,
		pt:      pt,
		parts:   parts,
		engine:  &exec.ColEngine[float64]{Parallelism: parallelism},
		damping: damping,
		ranks:   state.NewDenseStore[float64]("ranks", d, pt),
		lastL1:  math.Inf(1),
		inv:     make([]float64, d.NumVertices()),
		srcIdx:  make([]int32, rows),
		srcVal:  make([]float64, rows),
	}
	offsets, weights := d.Offsets, d.Weights
	for i := range pr.inv {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi && mine[pt.PartOf[i]] {
			pr.danglingIdx = append(pr.danglingIdx, int32(i))
		}
		total := float64(hi - lo)
		if weights != nil {
			total = 0
			for _, w := range weights[lo:hi] {
				total += w
			}
		}
		if total > 0 {
			pr.inv[i] = 1 / total
		}
	}
	pr.step = &exec.ColStep[float64]{
		Adj:    d,
		Parts:  pt,
		Expand: exec.ExpandMulWeight,
		Fold:   exec.FoldSum,
		Source: pr.source,
		Apply:  pr.apply,
	}
	pr.seed(pr.parts)
	return pr
}

// seed puts the listed partitions into superstep-zero state.
func (pr *PR) seed(parts []int) { pr.fill(parts, 1/float64(pr.d.NumVertices())) }

// fill sets every rank of the listed partitions to r.
func (pr *PR) fill(parts []int, r float64) {
	for _, p := range parts {
		ranks := pr.ranks.WriteAll(p)
		for slot := range ranks {
			ranks[slot] = r
		}
	}
}

// Name implements recovery.Job.
func (pr *PR) Name() string { return "pagerank" }

// RankVector materialises the current ranks as a map.
func (pr *PR) RankVector() map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64, pr.d.NumVertices())
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
	pr.ranks.Range(func(_ uint64, v float64) bool { s += v; return true })
	return s
}

// ConvergedCount counts vertices whose rank is within eps of the
// precomputed true rank — the demo's bottom-left plot.
func (pr *PR) ConvergedCount(truth map[graph.VertexID]float64, eps float64) int {
	n := 0
	pr.ranks.Range(func(k uint64, v float64) bool {
		if math.Abs(truth[graph.VertexID(k)]-v) < eps {
			n++
		}
		return true
	})
	return n
}

// source is find-neighbors' vertex half: it returns every present slot
// of partition part with what it sends along each out-edge, its rank
// times inv — the partition's own index column and srcVal when every
// slot is present, else the present ones compacted into the scratch.
func (pr *PR) source(part int) (exec.KeyCol, exec.ValCol[float64]) {
	owned := pr.pt.Owned[part]
	ranks, has := pr.ranks.Column(part)
	val, inv := pr.srcVal[:len(owned)], pr.inv
	for slot, v := range owned {
		val[slot] = ranks[slot] * inv[v]
	}
	if !slices.Contains(has, false) {
		return owned, val
	}
	idx := pr.srcIdx[:0]
	for slot, v := range owned {
		if has[slot] {
			val[len(idx)], idx = val[slot], append(idx, v)
		}
	}
	return idx, val[:len(idx)]
}

// beginFold sets apply's teleport base and share of danglingMass, the
// mass the expanded ranks held on sink vertices.
func (pr *PR) beginFold(danglingMass float64) {
	n := float64(pr.d.NumVertices())
	pr.base, pr.share, pr.l1 = (1-pr.damping)/n, pr.damping*danglingMass/n, 0
}

// apply is recompute-ranks and compare-to-old-rank: handed the sum of
// every vertex partition part owns, in slot order, it overwrites the
// ranks, adding their L1 change to pr.l1 (partitions, slots ascending).
func (pr *PR) apply(part int, _ exec.KeyCol, sums exec.ValCol[float64]) error {
	ranks := pr.ranks.WriteAll(part)
	l1 := pr.l1
	for slot, sum := range sums {
		nv := pr.base + pr.damping*sum + pr.share
		l1 += math.Abs(nv - ranks[slot])
		ranks[slot] = nv
	}
	pr.l1 = l1
	return nil
}

// Step implements the loop body for iterate.Loop: one PageRank
// superstep — dangling mass first, then the exchange that propagates
// and sums contributions, whose apply writes base + d*sum + share per
// vertex and the L1 delta, committing the new rank vector.
// A mid-superstep abort needs no reconciliation here: the fault strikes
// during expansion, before any apply writes a rank.
func (pr *PR) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	danglingMass := pr.danglingMass()
	pr.beginFold(danglingMass)
	stats, err := pr.engine.Run(pr.step, ctx.ScheduledFault())
	if err != nil {
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("pagerank: superstep: %w", err)
	}
	l1 := pr.l1
	pr.lastL1 = l1
	return iterate.StepStats{
		Messages: stats.Messages,
		Updates:  int64(pr.d.NumVertices()),
		Extra:    map[string]float64{"l1": l1, "dangling": danglingMass, "shuffled": float64(stats.Shuffled)},
	}, nil
}

// danglingMass sums the rank of this process's sink vertices: all the
// dangling mass in-process, one host's share of it in a worker.
func (pr *PR) danglingMass() float64 {
	mass := 0.0
	for _, idx := range pr.danglingIdx {
		if r, ok := pr.ranks.At(idx); ok {
			mass += r
		}
	}
	return mass
}

// SnapshotTo implements recovery.Job: the format tag, the convergence
// marker, the partition count, then every partition's rank view.
func (pr *PR) SnapshotTo(buf *bytes.Buffer) error {
	b := append(buf.AvailableBuffer(), state.ViewTag)
	b = colbytes.AppendF64(b, pr.lastL1)
	b = colbytes.AppendU32(b, uint32(pr.pt.N))
	for p := 0; p < pr.pt.N; p++ {
		b = pr.ranks.AppendPartitionBytes(b, p, colbytes.AppendF64Vals)
	}
	buf.Write(b)
	return nil
}

// RestoreFrom implements recovery.Job.
func (pr *PR) RestoreFrom(data []byte) error {
	return state.ReadView(pr.Name(), data, func(r *colbytes.Reader) error {
		l1 := r.F64()
		err := state.ReadPartitions(r, pr.pt.N, func(p int) error {
			return pr.ranks.RestorePartitionBytes(p, r, (*colbytes.Reader).F64Vals)
		})
		if err == nil {
			pr.lastL1 = l1
		}
		return err
	})
}

// ClearPartitions implements recovery.Job: the crash destroys the rank
// partitions of the failed workers.
func (pr *PR) ClearPartitions(parts []int) {
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
	out := make([]uint64, pr.pt.N)
	for p := range out {
		out[p] = pr.ranks.Version(p)
	}
	return out
}

// SnapshotPartition implements recovery.IncrementalJob.
func (pr *PR) SnapshotPartition(p int, buf *bytes.Buffer) error {
	return prCapture{pr.ranks}.SnapshotPartition(p, buf)
}

// RestorePartition implements recovery.IncrementalJob. The parallel
// restore path calls it concurrently for distinct partitions; rank
// state is per-partition, but the convergence marker is global and
// needs the lock.
func (pr *PR) RestorePartition(p int, data []byte) error {
	pr.restoreMu.Lock()
	pr.lastL1 = math.Inf(1) // the convergence marker is global; be safe
	pr.restoreMu.Unlock()
	return state.ReadView(pr.Name(), data, func(r *colbytes.Reader) error {
		return pr.ranks.RestorePartitionBytes(p, r, (*colbytes.Reader).F64Vals)
	})
}

// ResetToInitial implements recovery.Job.
func (pr *PR) ResetToInitial() error {
	pr.ranks.ClearAll()
	pr.seed(pr.parts)
	pr.lastL1 = math.Inf(1)
	return nil
}

// CaptureSnapshot implements recovery.AsyncJob: an O(partitions)
// copy-on-write view of the rank columns, safe to encode on background
// goroutines while the next superstep runs. Per-partition encoding
// matches SnapshotPartition byte for byte.
func (pr *PR) CaptureSnapshot() checkpoint.PartitionSnapshot {
	return prCapture{ranks: pr.ranks.SnapshotShared()}
}

type prCapture struct {
	ranks *state.DenseStore[float64]
}

func (s prCapture) NumPartitions() int { return s.ranks.NumPartitions() }

// SnapshotPartition writes the format tag and partition p's rank view:
// after the tag, the bytes Hosted.AppendPartition ships.
func (s prCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	buf.Write(s.ranks.AppendPartitionBytes(append(buf.AvailableBuffer(), state.ViewTag), p, colbytes.AppendF64Vals))
	return nil
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
