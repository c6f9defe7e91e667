// Package cc implements the Connected Components algorithm of the
// demonstration (§2.2.1): diffusion of the minimum component label
// [PEGASUS] expressed as a delta iteration (Fig. 1a) — label-to-neighbors
// join, candidate-label reduce, label-update join — plus the
// fix-components compensation function that makes the computation
// recoverable without checkpoints: lost vertices are reset to their
// initial labels, and they and the surviving vertices that send to them
// re-enter the workset to propagate labels again.
//
// There is one CC job: the min-fold delta iteration of
// internal/algo/minfold, which SSSP shares, instantiated with
// ExpandCopy and "every vertex starts active, labelled with its own ID".
// NewBulk runs the same job as the §2.1 bulk-iteration baseline, every
// vertex active in every superstep. FigurePlan renders Fig. 1a.
package cc

import (
	"optiflow/internal/algo/minfold"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// CC is a Connected Components delta iteration over a graph. It
// implements recovery.Job and every snapshot capability of
// minfold.Job.
type CC struct {
	*minfold.Job[uint64]
}

// kernel is Connected Components as a min-fold: every vertex starts in
// its own component (label = own ID), active, and sends its label
// unchanged along its out-edges.
func kernel(g *graph.Graph) minfold.Kernel[uint64] {
	ids := g.Dense().IDs()
	return minfold.Kernel[uint64]{
		Name:   "connected-components",
		Expand: exec.ExpandCopy,
		Init:   func(idx int32) (uint64, bool) { return uint64(ids[idx]), true },
	}
}

// NewColumnar prepares a Connected Components run on g with the given
// parallelism: every vertex starts in its own component (label = own
// ID) and the initial workset equals the labels input (§2.2.1).
func NewColumnar(g *graph.Graph, parallelism int) *CC {
	return &CC{minfold.New(kernel(g), g, parallelism)}
}

// NewBulk prepares Connected Components as a bulk iteration (§2.1): the
// job of NewColumnar with every vertex active in every superstep, so
// each superstep recomputes every label, converged or not, and the run
// stops after the first superstep that changes none.
func NewBulk(g *graph.Graph, parallelism int) *CC {
	k := kernel(g)
	k.Name += "-bulk"
	return &CC{minfold.NewBulk(k, g, parallelism)}
}

// Components materialises the solution set as a map.
func (c *CC) Components() map[graph.VertexID]graph.VertexID { return components(c.Job) }

func components(j *minfold.Job[uint64]) map[graph.VertexID]graph.VertexID {
	out := make(map[graph.VertexID]graph.VertexID, j.NumVertices())
	j.Range(func(v graph.VertexID, l uint64) bool {
		out[v] = graph.VertexID(l)
		return true
	})
	return out
}

// ConvergedCount counts vertices whose current label already equals the
// precomputed true component label — the demo's bottom-left plot.
func (c *CC) ConvergedCount(truth map[graph.VertexID]graph.VertexID) int {
	n := 0
	c.Range(func(v graph.VertexID, l uint64) bool {
		if truth[v] == graph.VertexID(l) {
			n++
		}
		return true
	})
	return n
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
