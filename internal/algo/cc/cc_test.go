package cc

import (
	"math/rand"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

func requireComponentsEqual(t *testing.T, got, want map[graph.VertexID]graph.VertexID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d labeled vertices, want %d", len(got), len(want))
	}
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("vertex %d: got component %d, want %d", v, got[v], w)
		}
	}
}

func TestFailureFreeMatchesUnionFind(t *testing.T) {
	g, _ := gen.Demo()
	truth := ref.ConnectedComponents(g)
	res, err := Run(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, truth)
	if got := ref.NumComponents(res.Components); got != 3 {
		t.Fatalf("demo graph should have 3 components, got %d", got)
	}
	if res.Failures != 0 {
		t.Fatalf("unexpected failures: %d", res.Failures)
	}
}

func TestOptimisticRecoveryConvergesToCorrectResult(t *testing.T) {
	g, _ := gen.Demo()
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).At(1, 0).At(3, 1)
	res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: recovery.Optimistic{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 {
		t.Fatalf("expected 2 failures, got %d", res.Failures)
	}
	requireComponentsEqual(t, res.Components, truth)
}

func TestCheckpointRecoveryConvergesToCorrectResult(t *testing.T) {
	g := gen.Grid(8, 8)
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).At(4, 2)
	pol := recovery.NewCheckpoint(2, checkpoint.NewMemoryStore())
	res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, truth)
	if res.Ticks <= res.Supersteps {
		t.Fatalf("rollback should re-execute supersteps: ticks=%d supersteps=%d", res.Ticks, res.Supersteps)
	}
}

func TestRestartRecoveryConvergesToCorrectResult(t *testing.T) {
	g := gen.Grid(6, 6)
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).At(3, 0)
	res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: recovery.Restart{}})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, truth)
}

func TestRandomGraphsRandomFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(60, 0.03, rng.Int63(), false)
		truth := ref.ConnectedComponents(g)
		inj := failure.NewChaos(rng.Int63()).WithProbabilities(0.3, 0, 0).WithMaxFailures(3)
		res, err := Run(g, Options{Parallelism: 4, Injector: inj})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireComponentsEqual(t, res.Components, truth)
	}
}

func TestMidStepAbortReactivatesPendingLabels(t *testing.T) {
	// Deterministic mid-step abort through the real exec engine: the
	// threshold is tiny, so the superstep aborts during its expansion,
	// before any label is lowered, and the retry must expand the same
	// workset again — a workset lost with the attempt would leave the
	// delta iteration stalled or converged to the wrong components.
	g, _ := gen.Demo()
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).AtMidStep(1, 2, 1)
	res, err := Run(g, Options{
		Parallelism: 4,
		Policy:      recovery.Optimistic{},
		Injector:    inj,
		MaxTicks:    5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if got := res.AbortedTicks(); len(got) != 1 {
		t.Fatalf("aborted ticks = %v, want exactly one mid-step abort", got)
	}
	s := res.Samples[res.AbortedTicks()[0]]
	if !s.Aborted || s.Stats.Messages != 0 {
		t.Fatalf("aborted sample = %+v", s)
	}
	for v, want := range truth {
		if res.Components[v] != want {
			t.Fatalf("vertex %d = %d, want %d", v, res.Components[v], want)
		}
	}
}

// directedPath is the graph 0 → 1 → … → n-1: labels diffuse along
// out-edges only, so every vertex ends in component 0 and a vertex's
// label can only be repaired by its predecessor re-sending.
func directedPath(n int) *graph.Graph {
	b := graph.NewBuilder(true)
	for v := graph.VertexID(0); v+1 < graph.VertexID(n); v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// TestCompensateDirectedPath pins which survivors the compensation
// re-activates on a directed graph: those with an out-edge INTO a lost
// partition. Re-activating the targets of the lost vertices' out-edges
// instead left the restored vertices waiting for labels nobody re-sent.
func TestCompensateDirectedPath(t *testing.T) {
	g := directedPath(40)
	clean, err := Run(g, Options{Parallelism: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range clean.Components {
		if l != 0 {
			t.Fatalf("failure-free: vertex %d ends in component %d, want 0", v, l)
		}
	}
	for _, at := range []int{20, 35} {
		for victim := 0; victim < 2; victim++ {
			res, err := Run(g, Options{Parallelism: 4, Workers: 2, Policy: recovery.Optimistic{},
				Injector: failure.NewScripted(nil).At(at, victim)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 1 {
				t.Fatalf("At(%d,%d): %d failures struck, want 1", at, victim, res.Failures)
			}
			wrong := 0
			for v, l := range res.Components {
				if l != clean.Components[v] {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("At(%d,%d): %d of %d labels wrong after compensation", at, victim, wrong, len(res.Components))
			}
		}
	}
}
