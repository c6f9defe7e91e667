package pagerank

import (
	"math"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// Ground-truth suite: the job runs the same damped power iteration as
// internal/algo/ref, so it must land within the termination tolerance
// of the reference ranks. Bitwise equality with the reference is NOT
// the contract: the two add contributions in different orders. A run
// does repeat itself bit for bit (TestSnapshotBytesReproducible).

// requireConverges runs the job and checks it against the
// power-iteration ground truth and for unit rank mass. The options
// factory builds fresh stateful policies and injectors for the run.
func requireConverges(t *testing.T, g *graph.Graph, mkOpts func() Options, tol float64) {
	t.Helper()
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	res, err := Run(g, mkOpts())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	requireClose(t, res.Ranks, truth, tol)
	if s := ref.Sum(res.Ranks); math.Abs(s-1) > 1e-9 {
		t.Fatalf("rank sum = %.12f, want 1", s)
	}
}

func TestGroundTruthFailureFree(t *testing.T) {
	demo, _ := gen.Demo()
	graphs := []*graph.Graph{
		demo,
		gen.BarabasiAlbert(120, 3, 5, true), // directed, with dangling mass
		gen.ErdosRenyi(100, 0.05, 9, true),
	}
	for _, g := range graphs {
		requireConverges(t, g, func() Options {
			return Options{Parallelism: 4, MaxIterations: 200, Epsilon: 1e-12}
		}, 1e-9)
	}
}

// Local combining folds partial sums before the shuffle; the result
// must stay within tolerance of the uncombined fixpoint.
func TestGroundTruthLocalCombine(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 21, true)
	requireConverges(t, g, func() Options {
		return Options{Parallelism: 4, MaxIterations: 200, Epsilon: 1e-12, LocalCombine: true}
	}, 1e-9)
}

// The fault-injection matrix across the recovery policies, the
// per-partition incremental one on the async epoch pipeline. Failure compensation perturbs the iterate — the rank vector
// re-converges rather than replays — so the tolerance is the looser
// 1e-8 the recovery tests in pagerank_test.go already use.
func TestGroundTruthFaultMatrix(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 33, true)
	policies := []func() recovery.Policy{
		func() recovery.Policy { return recovery.Optimistic{} },
		func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
		func() recovery.Policy {
			p := recovery.NewAsyncCheckpoint(2, checkpoint.NewMemoryStore(), 2)
			p.Incremental = true
			return p
		},
		func() recovery.Policy { return recovery.Restart{} },
	}
	injectors := []func() failure.Injector{
		func() failure.Injector { return failure.NewScripted(nil).At(2, 1) },
		func() failure.Injector { return failure.NewScripted(nil).AtMidStep(1, 32, 0) },
		func() failure.Injector { return failure.NewScripted(nil).At(1, 0).AtDuringRecovery(1, 2) },
		func() failure.Injector { return failure.NewChaos(77).WithProbabilities(0.1, 0, 0).WithMaxFailures(2) },
	}
	for pi, mkPolicy := range policies {
		for ii, mkInj := range injectors {
			t.Logf("policy %d injector %d", pi, ii)
			requireConverges(t, g, func() Options {
				return Options{
					Parallelism:   4,
					MaxIterations: 500,
					Epsilon:       1e-12,
					Policy:        mkPolicy(),
					Injector:      mkInj(),
				}
			}, 1e-8)
		}
	}
}

// Both asynchronous checkpoint policies: the COW capture must feed the
// background pipeline the same bytes the superstep state holds at the
// barrier, so recovery lands on the reference ranks.
func TestGroundTruthAsyncCheckpoints(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 13, true)
	asyncs := []func() recovery.Policy{
		func() recovery.Policy {
			return recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 2)
		},
		func() recovery.Policy {
			p := recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 2)
			p.Incremental = true
			return p
		},
	}
	injectors := []func() failure.Injector{
		func() failure.Injector { return nil },
		func() failure.Injector { return failure.NewScripted(nil).At(2, 1) },
		func() failure.Injector { return failure.NewScripted(nil).AtMidStep(2, 24, 0).At(4, 2) },
	}
	for _, mkPolicy := range asyncs {
		for _, mkInj := range injectors {
			requireConverges(t, g, func() Options {
				return Options{
					Parallelism:   4,
					MaxIterations: 500,
					Epsilon:       1e-12,
					Policy:        mkPolicy(),
					Injector:      mkInj(),
				}
			}, 1e-8)
		}
	}
}

// Every compensation variant must repair the DenseStore into a
// consistent state the iteration converges from.
func TestGroundTruthCompensations(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 55, true)
	comps := []Compensation{UniformRedistribution, ResetAllUniform, ZeroFillRenormalize}
	for i, comp := range comps {
		t.Logf("compensation %d", i)
		requireConverges(t, g, func() Options {
			return Options{
				Parallelism:   4,
				MaxIterations: 500,
				Epsilon:       1e-12,
				Compensation:  comp,
				Injector:      failure.NewScripted(nil).At(2, 1),
			}
		}, 1e-8)
	}
}
