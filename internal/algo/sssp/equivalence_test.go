package sssp

import (
	"math/rand"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
	"optiflow/internal/vertexcentric"
)

// Ground-truth suite over both routes of Run: the min-fold job and the
// vertex-centric program (the runner confined recovery needs, see Run)
// relax the same hop-ordered weight sums under the same min fold, so
// the shortest-path fixpoint is identical (requireDistancesEqual's 1e-9
// is slack for +Inf handling, not for divergent arithmetic).

// requireBothMatch runs the same SSSP computation as the min-fold job
// and as the vertex-centric program and checks each against Dijkstra,
// then against the other. The options factory is invoked once per run
// so stateful policies and injectors are never shared.
func requireBothMatch(t *testing.T, g *graph.Graph, source graph.VertexID, mkOpts func() vertexcentric.Options) {
	t.Helper()
	truth := ref.ShortestPaths(g, source)

	boxed, err := vertexcentric.Run(Program(g, source), g, mkOpts())
	if err != nil {
		t.Fatalf("vertex-centric run: %v", err)
	}
	col, _, err := runColumnar(g, source, mkOpts())
	if err != nil {
		t.Fatalf("columnar run: %v", err)
	}
	requireDistancesEqual(t, boxed.States, truth)
	requireDistancesEqual(t, col, truth)
	requireDistancesEqual(t, col, boxed.States)
}

func TestGroundTruthFailureFree(t *testing.T) {
	weighted := func() *graph.Graph {
		b := graph.NewBuilder(true)
		rng := rand.New(rand.NewSource(3))
		for v := 1; v < 60; v++ {
			b.AddWeightedEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 1+float64(rng.Intn(9)))
			b.AddWeightedEdge(graph.VertexID(v), graph.VertexID(rng.Intn(v)), 1+float64(rng.Intn(9)))
		}
		return b.Build()
	}
	graphs := []*graph.Graph{
		gen.Grid(7, 9),
		gen.BarabasiAlbert(100, 2, 19, false),
		weighted(),
	}
	for _, g := range graphs {
		requireBothMatch(t, g, 0, func() vertexcentric.Options {
			return vertexcentric.Options{Parallelism: 4}
		})
	}
}

// The fault-injection matrix over the policies both routes support
// (confined recovery pins the vertex-centric runner by design — see Run
// — so it is exercised separately below), plus the per-partition,
// asynchronous and delta-log checkpoints only the min-fold job supports.
func TestGroundTruthFaultMatrix(t *testing.T) {
	g := gen.BarabasiAlbert(90, 2, 47, false)
	policies := []func() recovery.Policy{
		func() recovery.Policy { return recovery.Optimistic{} },
		func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
		func() recovery.Policy { return recovery.Restart{} },
	}
	injectors := []func() failure.Injector{
		func() failure.Injector { return failure.NewScripted(nil).At(2, 1) },
		func() failure.Injector { return failure.NewScripted(nil).At(1, 0).At(3, 2) },
		func() failure.Injector { return failure.NewScripted(nil).AtMidStep(1, 16, 0) },
		func() failure.Injector { return failure.NewChaos(11).WithProbabilities(0.2, 0, 0).WithMaxFailures(2) },
	}
	for pi, mkPolicy := range policies {
		for ii, mkInj := range injectors {
			t.Logf("policy %d injector %d", pi, ii)
			requireBothMatch(t, g, 0, func() vertexcentric.Options {
				return vertexcentric.Options{
					Parallelism: 4,
					Policy:      mkPolicy(),
					Injector:    mkInj(),
					MaxTicks:    5000,
				}
			})
		}
	}
	truth := ref.ShortestPaths(g, 0)
	asyncIncremental := recovery.NewAsyncCheckpoint(2, checkpoint.NewMemoryStore(), 2)
	asyncIncremental.Incremental = true
	for _, pol := range []recovery.Policy{
		asyncIncremental,
		recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 2),
		recovery.NewDeltaCheckpoint(1, checkpoint.NewMemoryStore()),
	} {
		got, res, err := Run(g, 0, vertexcentric.Options{
			Parallelism: 4,
			Policy:      pol,
			Injector:    failure.NewScripted(nil).At(2, 1).AtMidStep(3, 16, 0),
			MaxTicks:    5000,
		})
		if err != nil {
			t.Fatalf("%T: %v", pol, err)
		}
		if res.Failures == 0 {
			t.Fatalf("%T: no failure struck", pol)
		}
		requireDistancesEqual(t, got, truth)
	}
}

// Runs that require the vertex-centric accumulator replicas are routed
// to the vertex-centric runner and must still match Dijkstra: the
// engine selection never changes which configurations are supported.
func TestConfinedRunsUseVertexCentricRunner(t *testing.T) {
	g := gen.Grid(8, 8)
	truth := ref.ShortestPaths(g, 0)
	cases := []vertexcentric.Options{
		{Parallelism: 4, AccumulatorLog: true, Injector: failure.NewScripted(nil).At(2, 1)},
		{Parallelism: 4, AccumulatorLog: true, Policy: recovery.Confined{}, Injector: failure.NewScripted(nil).At(2, 1)},
	}
	for i, opts := range cases {
		if columnarEligible(opts) {
			t.Fatalf("case %d: expected the vertex-centric runner", i)
		}
		got, _, err := Run(g, 0, opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireDistancesEqual(t, got, truth)
	}
}
