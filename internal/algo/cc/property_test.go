package cc

import (
	"testing"
	"testing/quick"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// The central correctness property of the paper's [14]: for ANY random
// graph, ANY random failure schedule and EVERY recovery policy, the
// delta-iteration Connected Components converges to exactly the
// union-find components.
func TestAllPoliciesAllSchedulesProperty(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, probRaw uint8) bool {
		n := int(nRaw%40) + 20
		edgeProb := 0.02 + float64(pRaw%10)/200.0
		failProb := float64(probRaw%40) / 100.0

		g := gen.ErdosRenyi(n, edgeProb, seed, false)
		truth := ref.ConnectedComponents(g)

		policies := []func() recovery.Policy{
			func() recovery.Policy { return recovery.Optimistic{} },
			func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
			func() recovery.Policy { return newAsyncIncremental(2) },
			func() recovery.Policy { return recovery.NewDeltaCheckpoint(1, checkpoint.NewMemoryStore()) },
			func() recovery.Policy { return recovery.Restart{} },
		}
		for i, mk := range policies {
			res, err := Run(g, Options{
				Parallelism: 4,
				Policy:      mk(),
				Injector:    failure.NewChaos(seed+int64(i)).WithProbabilities(failProb, 0, 0).WithMaxFailures(3),
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
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// The mid-superstep analogue: for ANY random graph and ANY scripted
// mid-superstep failure schedule, aborting the running dataflow and
// recovering under the optimistic, checkpoint and restart policies
// still converges to exactly the union-find components. This exercises
// the full abort path — the exec engine aborts the superstep during its
// expansion, before any label is lowered, the retry expands the same
// workset again, and the policy repairs the lost partitions.
func TestMidStepFailuresConvergeProperty(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, sRaw, aRaw uint8) bool {
		n := int(nRaw%40) + 20
		edgeProb := 0.02 + float64(pRaw%10)/200.0
		g := gen.ErdosRenyi(n, edgeProb, seed, false)
		truth := ref.ConnectedComponents(g)

		// Two mid-step failures in the early supersteps, with small
		// record thresholds so the abort usually strikes mid-flight (and
		// the boundary fallback covers it when the plan outruns it).
		s1 := int(sRaw % 3)
		s2 := s1 + 1 + int(sRaw%2)
		after := int64(aRaw % 64)

		policies := []func() recovery.Policy{
			func() recovery.Policy { return recovery.Optimistic{} },
			func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
			func() recovery.Policy { return recovery.Restart{} },
		}
		for i, mk := range policies {
			inj := failure.NewScripted(nil).
				AtMidStep(s1, after, int(seed&1)).
				AtMidStep(s2, after*2, 2)
			res, err := Run(g, Options{
				Parallelism: 4,
				Policy:      mk(),
				Injector:    inj,
				MaxTicks:    5000,
			})
			if err != nil {
				t.Logf("policy %d: %v", i, err)
				return false
			}
			for v, want := range truth {
				if res.Components[v] != want {
					t.Logf("policy %d: vertex %d = %d, want %d", i, v, res.Components[v], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
