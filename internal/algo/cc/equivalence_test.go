package cc

import (
	"testing"
	"testing/quick"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// Ground-truth suite: the columnar superstep must compute exactly the
// labels internal/algo/ref computes. CC's fixpoint is unique — every
// vertex converges to the minimum label of its component — so exact
// equality against the union-find ground truth is the right notion of
// correctness even under failures and recovery.

// requireMatchesTruth runs the computation and holds its labels to
// union-find; the options factory builds fresh stateful policies and
// injectors for the run.
func requireMatchesTruth(t *testing.T, g *graph.Graph, mkOpts func() Options) {
	t.Helper()
	res, err := Run(g, mkOpts())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	requireComponentsEqual(t, res.Components, ref.ConnectedComponents(g))
}

func TestGroundTruthFailureFree(t *testing.T) {
	demo, _ := gen.Demo()
	graphs := []*graph.Graph{
		demo,
		gen.Grid(9, 7),
		gen.ErdosRenyi(120, 0.04, 7, false),
		gen.BarabasiAlbert(150, 3, 11, false),
	}
	for _, g := range graphs {
		requireMatchesTruth(t, g, func() Options {
			return Options{Parallelism: 4}
		})
	}
}

// The PR 3/PR 4 fault-injection matrix: barrier failures, mid-superstep
// aborts and failures during recovery, across the recovery policies
// (per-partition incremental checkpoints on the async epoch pipeline).
func TestGroundTruthFaultMatrix(t *testing.T) {
	g := gen.ErdosRenyi(90, 0.05, 42, false)
	policies := []func() recovery.Policy{
		func() recovery.Policy { return recovery.Optimistic{} },
		func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
		func() recovery.Policy { return newAsyncIncremental(2) },
		func() recovery.Policy { return recovery.NewDeltaCheckpoint(1, checkpoint.NewMemoryStore()) },
		func() recovery.Policy { return recovery.Restart{} },
	}
	injectors := []func() failure.Injector{
		func() failure.Injector { return failure.NewScripted(nil).At(1, 0).At(3, 2) },
		func() failure.Injector { return failure.NewScripted(nil).AtMidStep(1, 16, 0).AtMidStep(2, 32, 1) },
		func() failure.Injector { return failure.NewScripted(nil).At(1, 1).AtDuringRecovery(1, 2) },
		func() failure.Injector { return failure.NewChaos(99).WithProbabilities(0.15, 0, 0).WithMaxFailures(3) },
	}
	for pi, mkPolicy := range policies {
		for ii, mkInj := range injectors {
			mk := func() Options {
				return Options{
					Parallelism: 4,
					Policy:      mkPolicy(),
					Injector:    mkInj(),
					MaxTicks:    5000,
				}
			}
			t.Logf("policy %d injector %d", pi, ii)
			requireMatchesTruth(t, g, mk)
		}
	}
}

// Both asynchronous checkpoint policies — full captures and
// incremental dirty-partition submission — must recover the job from
// background-written epochs to the ground truth.
func TestGroundTruthAsyncCheckpoints(t *testing.T) {
	g := gen.ErdosRenyi(90, 0.05, 17, false)
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
		func() failure.Injector { return failure.NewScripted(nil).AtMidStep(1, 24, 0).At(3, 2) },
	}
	for _, mkPolicy := range asyncs {
		for _, mkInj := range injectors {
			requireMatchesTruth(t, g, func() Options {
				return Options{
					Parallelism: 4,
					Policy:      mkPolicy(),
					Injector:    mkInj(),
					MaxTicks:    5000,
				}
			})
		}
	}
}

// Property form: for ANY random graph and ANY random failure schedule,
// the job agrees with union-find.
func TestGroundTruthProperty(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, probRaw uint8) bool {
		n := int(nRaw%40) + 20
		edgeProb := 0.02 + float64(pRaw%10)/200.0
		failProb := float64(probRaw%40) / 100.0
		g := gen.ErdosRenyi(n, edgeProb, seed, false)
		truth := ref.ConnectedComponents(g)

		res, err := Run(g, Options{
			Parallelism: 4,
			Injector:    failure.NewChaos(seed).WithProbabilities(failProb, 0, 0).WithMaxFailures(3),
			MaxTicks:    5000,
		})
		if err != nil {
			return false
		}
		for v, want := range truth {
			if res.Components[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
