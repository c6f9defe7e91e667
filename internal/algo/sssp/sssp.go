// Package sssp implements single-source shortest paths as a delta
// iteration — the paper's own motivating example for delta iterations
// ("parts of the intermediate state converge at different speeds, e.g.
// in single-source shortest path computations in large graphs", §2.1).
// It is the min-fold job of internal/algo/minfold that Connected
// Components also is, with ExpandAddWeight and "the source starts at 0,
// every other vertex inactive at +Inf", so its compensation is
// fix-components: lost vertices reset to their initial distances, and
// they and the surviving vertices that send to them re-enter the
// workset. Distances only ever decrease and any recorded distance
// witnesses a real path, so the fixpoint still converges to the true
// shortest paths after compensation.
package sssp

import (
	"math"

	"optiflow/internal/algo/minfold"
	"optiflow/internal/cluster"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/vertexcentric"
)

// Inf marks an unreached vertex.
var Inf = math.Inf(1)

// Program returns the vertex-centric shortest-path program from the
// given source over g's edge weights.
func Program(g *graph.Graph, source graph.VertexID) vertexcentric.Program[float64, float64] {
	sendEdges := func(v graph.VertexID, dist float64, send func(graph.VertexID, float64)) {
		g.OutEdges(v, func(dst graph.VertexID, w float64) {
			send(dst, dist+w)
		})
	}
	return vertexcentric.Program[float64, float64]{
		Name: "sssp",
		Init: func(v graph.VertexID) (float64, []vertexcentric.Outbound[float64]) {
			if v != source {
				return Inf, nil
			}
			var out []vertexcentric.Outbound[float64]
			g.OutEdges(v, func(dst graph.VertexID, w float64) {
				out = append(out, vertexcentric.Outbound[float64]{To: dst, Msg: w})
			})
			return 0, out
		},
		Compute: func(v graph.VertexID, dist float64, msgs []float64, send func(graph.VertexID, float64)) (float64, bool) {
			best := dist
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best >= dist {
				return dist, false
			}
			sendEdges(v, best, send)
			return best, true
		},
		Combine: math.Min,
		Compensate: func(v graph.VertexID) float64 {
			if v == source {
				return 0
			}
			return Inf
		},
		Reactivate: func(v graph.VertexID, dist float64, send func(graph.VertexID, float64)) {
			if math.IsInf(dist, 1) {
				return
			}
			sendEdges(v, dist, send)
		},
	}
}

// Run computes shortest-path distances from source under the given
// options. Unreached vertices map to +Inf.
//
// The iteration is the min-fold job on the typed columnar engine, under
// every recovery policy CC supports, unless the run requests confined
// recovery — AccumulatorLog or the recovery.Confined policy. Confined
// recovery's replica protocol exists only in the vertex-centric runner,
// so those runs execute vertexcentric.Run(Program(g, source), ...) on
// exec.Engine instead: the route follows from the requested policy,
// there is no flag for it, and both compute the same distances
// (equivalence_test.go).
func Run(g *graph.Graph, source graph.VertexID, opts vertexcentric.Options) (map[graph.VertexID]float64, *vertexcentric.Result[float64, float64], error) {
	if columnarEligible(opts) {
		return runColumnar(g, source, opts)
	}
	res, err := vertexcentric.Run(Program(g, source), g, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.States, res, nil
}

func columnarEligible(opts vertexcentric.Options) bool {
	_, confined := opts.Policy.(recovery.Confined)
	return !opts.AccumulatorLog && !confined
}

// kernel is shortest paths as a min-fold: the source starts active at
// distance 0, every other vertex inactive at +Inf, and an active vertex
// sends its distance plus the edge weight along its out-edges.
func kernel(g *graph.Graph, source graph.VertexID) minfold.Kernel[float64] {
	src, ok := g.Dense().IndexOf(source)
	return minfold.Kernel[float64]{
		Name:   "sssp",
		Expand: exec.ExpandAddWeight,
		Init: func(idx int32) (float64, bool) {
			if ok && idx == src {
				return 0, true
			}
			return Inf, false
		},
	}
}

// runColumnar drives the min-fold job through the same iterate.Loop
// harness vertexcentric.Run uses, so policies, injectors and samples
// behave identically.
func runColumnar(g *graph.Graph, source graph.VertexID, opts vertexcentric.Options) (map[graph.VertexID]float64, *vertexcentric.Result[float64, float64], error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = opts.Parallelism
	}
	if opts.Policy == nil {
		opts.Policy = recovery.Optimistic{}
	}
	job := minfold.New(kernel(g, source), g, opts.Parallelism)
	cl := cluster.New(opts.Workers, opts.Parallelism)
	loop := &iterate.Loop{
		Name:     job.Name(),
		Step:     job.Step,
		Done:     iterate.DeltaDone(job.WorksetLen),
		Job:      job,
		Policy:   opts.Policy,
		Cluster:  cl,
		Injector: opts.Injector,
		OnSample: opts.OnSample,
		MaxTicks: opts.MaxTicks,
	}
	res, err := loop.Run()
	if err != nil {
		return nil, nil, err
	}
	dist := make(map[graph.VertexID]float64, job.NumVertices())
	job.Range(func(v graph.VertexID, d float64) bool {
		dist[v] = d
		return true
	})
	return dist, &vertexcentric.Result[float64, float64]{Result: res, States: dist, Cluster: cl}, nil
}
