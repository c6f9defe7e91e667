package sssp

import (
	"math"
	"math/rand"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
	"optiflow/internal/vertexcentric"
)

func requireDistancesEqual(t *testing.T, got, want map[graph.VertexID]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d distances, want %d", len(got), len(want))
	}
	for v, w := range want {
		g := got[v]
		if math.IsInf(w, 1) && math.IsInf(g, 1) {
			continue
		}
		if math.Abs(g-w) > 1e-9 {
			t.Fatalf("vertex %d: got distance %g, want %g", v, g, w)
		}
	}
}

func TestFailureFreeMatchesDijkstra(t *testing.T) {
	g := gen.Grid(7, 9)
	truth := ref.ShortestPaths(g, 0)
	got, res, err := Run(g, 0, vertexcentric.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireDistancesEqual(t, got, truth)
	if res.Failures != 0 {
		t.Fatalf("unexpected failures: %d", res.Failures)
	}
}

func TestWeightedGraph(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(2, 1, 1)
	b.AddWeightedEdge(1, 3, 1)
	b.AddWeightedEdge(2, 3, 10)
	g := b.Build()
	got, _, err := Run(g, 0, vertexcentric.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireDistancesEqual(t, got, map[graph.VertexID]float64{0: 0, 1: 2, 2: 1, 3: 3})
}

func TestOptimisticRecoveryConvergesToTrueDistances(t *testing.T) {
	g := gen.Grid(8, 8)
	truth := ref.ShortestPaths(g, 0)
	inj := failure.NewScripted(nil).At(3, 1)
	got, res, err := Run(g, 0, vertexcentric.Options{Parallelism: 4, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("expected 1 failure, got %d", res.Failures)
	}
	requireDistancesEqual(t, got, truth)
}

func TestRandomFailuresStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		g := gen.BarabasiAlbert(80, 2, rng.Int63(), false)
		truth := ref.ShortestPaths(g, 0)
		inj := failure.NewChaos(rng.Int63()).WithProbabilities(0.3, 0, 0).WithMaxFailures(2)
		got, _, err := Run(g, 0, vertexcentric.Options{Parallelism: 4, Injector: inj})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireDistancesEqual(t, got, truth)
	}
}

// TestShortestPathsDirectedPath pins which survivors the compensation
// re-activates on a directed graph, on both routes of Run: those with an
// out-edge INTO a lost partition. Re-activating the targets of the lost
// vertices' out-edges instead left the restored vertices waiting for
// distances nobody re-sent.
func TestShortestPathsDirectedPath(t *testing.T) {
	b := graph.NewBuilder(true)
	for v := graph.VertexID(0); v+1 < 40; v++ {
		b.AddWeightedEdge(v, v+1, float64(1+v%3))
	}
	g := b.Build()
	truth := ref.ShortestPaths(g, 0)
	for _, accLog := range []bool{false, true} {
		for _, at := range []int{20, 35} {
			for victim := 0; victim < 2; victim++ {
				got, res, err := Run(g, 0, vertexcentric.Options{Parallelism: 4, Workers: 2,
					AccumulatorLog: accLog, Policy: recovery.Optimistic{},
					Injector: failure.NewScripted(nil).At(at, victim)})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failures != 1 {
					t.Fatalf("AccumulatorLog=%v At(%d,%d): %d failures struck, want 1", accLog, at, victim, res.Failures)
				}
				wrong := 0
				for v, d := range truth {
					if got[v] != d {
						wrong++
					}
				}
				if wrong > 0 {
					t.Errorf("AccumulatorLog=%v At(%d,%d): %d of %d distances wrong after compensation", accLog, at, victim, wrong, len(truth))
				}
			}
		}
	}
}
