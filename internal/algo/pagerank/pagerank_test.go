package pagerank

import (
	"math"
	"math/rand"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"testing/quick"
)

func requireClose(t *testing.T, got, want map[graph.VertexID]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d ranks, want %d", len(got), len(want))
	}
	for v, w := range want {
		if math.Abs(got[v]-w) > tol {
			t.Fatalf("vertex %d: got rank %.12f, want %.12f (tol %g)", v, got[v], w, tol)
		}
	}
}

func requireSumsToOne(t *testing.T, ranks map[graph.VertexID]float64) {
	t.Helper()
	if s := ref.Sum(ranks); math.Abs(s-1) > 1e-9 {
		t.Fatalf("ranks sum to %.12f, want 1", s)
	}
}

func TestFailureFreeMatchesPowerIteration(t *testing.T) {
	g, _ := gen.DemoDirected()
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	res, err := Run(g, Options{Parallelism: 4, MaxIterations: 100, Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	requireSumsToOne(t, res.Ranks)
	requireClose(t, res.Ranks, truth, 1e-9)
}

func TestOptimisticRecoveryConvergesToCorrectRanks(t *testing.T) {
	g, _ := gen.DemoDirected()
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	inj := failure.NewScripted(nil).At(5, 1)
	res, err := Run(g, Options{Parallelism: 4, MaxIterations: 200, Epsilon: 1e-12, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("expected 1 failure, got %d", res.Failures)
	}
	requireSumsToOne(t, res.Ranks)
	requireClose(t, res.Ranks, truth, 1e-9)
}

func TestRankSumInvariantAcrossFailures(t *testing.T) {
	g := gen.Twitter(500, 42)
	inj := failure.NewScripted(nil).At(2, 0).At(6, 3)
	var sums []float64
	_, err := Run(g, Options{
		Parallelism: 4, MaxIterations: 12, Injector: inj,
		Probe: func(job *PR, s iterate.Sample) { sums = append(sums, job.RankSum()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("after attempt %d rank mass is %.12f, want 1 (compensation must restore consistency)", i, s)
		}
	}
}

func TestCheckpointRecoveryConvergesToCorrectRanks(t *testing.T) {
	g, _ := gen.DemoDirected()
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	inj := failure.NewScripted(nil).At(5, 1)
	pol := recovery.NewCheckpoint(2, checkpoint.NewMemoryStore())
	res, err := Run(g, Options{Parallelism: 4, MaxIterations: 200, Epsilon: 1e-12, Injector: inj, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, res.Ranks, truth, 1e-9)
	if res.Ticks <= res.Supersteps {
		t.Fatalf("rollback should re-execute supersteps: ticks=%d supersteps=%d", res.Ticks, res.Supersteps)
	}
}

func TestCompensationVariantsAllConverge(t *testing.T) {
	g := gen.Twitter(200, 7)
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	for _, tc := range []struct {
		name string
		comp Compensation
	}{
		{"uniform-redistribution", UniformRedistribution},
		{"reset-all-uniform", ResetAllUniform},
		{"zero-fill-renormalize", ZeroFillRenormalize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := failure.NewScripted(nil).At(4, 2)
			res, err := Run(g, Options{
				Parallelism: 4, MaxIterations: 500, Epsilon: 1e-12,
				Compensation: tc.comp, Injector: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireSumsToOne(t, res.Ranks)
			requireClose(t, res.Ranks, truth, 1e-8)
		})
	}
}

func TestL1SpikesAtFailure(t *testing.T) {
	g, _ := gen.DemoDirected()
	inj := failure.NewScripted(nil).At(5, 1)
	res, err := Run(g, Options{Parallelism: 4, MaxIterations: 30, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.ExtraSeries("l1")
	// The attempt right after the failed one recomputes from the
	// compensated state: its L1 delta must exceed the failure-free trend.
	failTick := res.FailureTicks()[0]
	if failTick+1 >= len(l1) {
		t.Fatalf("no post-failure attempt recorded")
	}
	if l1[failTick+1] <= l1[failTick] {
		t.Fatalf("expected L1 spike after failure: l1[%d]=%g, l1[%d]=%g",
			failTick, l1[failTick], failTick+1, l1[failTick+1])
	}
}

func TestRandomFailuresStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		g := gen.Twitter(120, rng.Int63())
		truth, _ := ref.PageRank(g, ref.PageRankOptions{})
		inj := failure.NewChaos(rng.Int63()).WithProbabilities(0.25, 0, 0).WithMaxFailures(3)
		res, err := Run(g, Options{Parallelism: 4, MaxIterations: 500, Epsilon: 1e-12, Injector: inj})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireClose(t, res.Ranks, truth, 1e-8)
	}
}

func TestWeightedTransitionsMatchReference(t *testing.T) {
	// Edge weights define the transition probabilities; the dataflow PR
	// must agree with the sequential reference on weighted graphs.
	b := graph.NewBuilder(true)
	b.AddWeightedEdge(1, 2, 3)
	b.AddWeightedEdge(1, 3, 1)
	b.AddWeightedEdge(2, 3, 2)
	b.AddWeightedEdge(3, 1, 1)
	b.AddWeightedEdge(2, 1, 0.5)
	g := b.Build()

	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	res, err := Run(g, Options{Parallelism: 2, MaxIterations: 500, Epsilon: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, res.Ranks, truth, 1e-9)

	// The weights must actually matter: the same topology with unit
	// weights yields different ranks.
	ub := graph.NewBuilder(true)
	g.Edges(func(e graph.Edge) { ub.AddEdge(e.Src, e.Dst) })
	unweighted, err := Run(ub.Build(), Options{Parallelism: 2, MaxIterations: 500, Epsilon: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(unweighted.Ranks[2]-res.Ranks[2]) < 1e-6 {
		t.Fatalf("weights ignored: weighted rank(2)=%g equals unweighted %g", res.Ranks[2], unweighted.Ranks[2])
	}
}

func TestWeightedRecoveryStillCorrect(t *testing.T) {
	b := graph.NewBuilder(true)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		for j := 0; j < 3; j++ {
			b.AddWeightedEdge(graph.VertexID(i), graph.VertexID(rng.Intn(60)), 1+rng.Float64()*4)
		}
	}
	g := b.Build()
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	inj := failure.NewScripted(nil).At(4, 1)
	res, err := Run(g, Options{Parallelism: 4, MaxIterations: 500, Epsilon: 1e-13, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, res.Ranks, truth, 1e-8)
}

func TestMidStepAbortConvergesToCorrectRanks(t *testing.T) {
	g, _ := gen.DemoDirected()
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	inj := failure.NewScripted(nil).AtMidStep(3, 4, 1)
	res, err := Run(g, Options{Parallelism: 4, MaxIterations: 200, Epsilon: 1e-12, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if got := res.AbortedTicks(); len(got) != 1 {
		t.Fatalf("aborted ticks = %v, want exactly one mid-step abort", got)
	}
	requireSumsToOne(t, res.Ranks)
	requireClose(t, res.Ranks, truth, 1e-9)
}

// Mid-superstep aborts under the optimistic, checkpoint and restart
// policies all converge to the power-iteration ground truth: the
// aborted attempt only dirtied the per-superstep scratch store, and
// each policy repairs the lost rank partitions its own way.
func TestMidStepFailuresUnderAllPoliciesProperty(t *testing.T) {
	f := func(seed int64, sRaw, aRaw uint8) bool {
		g, _ := gen.DemoDirected()
		truth, _ := ref.PageRank(g, ref.PageRankOptions{})

		s1 := int(sRaw % 4)
		after := int64(aRaw % 32)
		policies := []func() recovery.Policy{
			func() recovery.Policy { return recovery.Optimistic{} },
			func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
			func() recovery.Policy { return recovery.Restart{} },
		}
		for i, mk := range policies {
			inj := failure.NewScripted(nil).
				AtMidStep(s1, after, int(seed&1)).
				AtMidStep(s1+2, after*2, 3)
			res, err := Run(g, Options{
				Parallelism:   4,
				MaxIterations: 300,
				Epsilon:       1e-12,
				Policy:        mk(),
				Injector:      inj,
				MaxTicks:      5000,
			})
			if err != nil {
				t.Logf("policy %d: %v", i, err)
				return false
			}
			if math.Abs(ref.Sum(res.Ranks)-1) > 1e-9 {
				t.Logf("policy %d: ranks sum to %v", i, ref.Sum(res.Ranks))
				return false
			}
			if ref.L1(res.Ranks, truth) > 1e-9 {
				t.Logf("policy %d: L1 to truth %v", i, ref.L1(res.Ranks, truth))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestSourceSkipsAbsentSlots steps a job one of whose rank partitions
// was cleared: its vertices send nothing, so the step counts only the
// other partitions' out-edges, and the ranks it writes equal, bit for
// bit, those of a twin whose partition holds rank 0 instead — which
// sends zeros along the same edges. The source compacts a partition
// with absent slots; a full one it hands over whole.
func TestSourceSkipsAbsentSlots(t *testing.T) {
	g := gen.Twitter(300, 7)
	pr, twin := NewColumnar(g, 4, 0.85, nil), NewColumnar(g, 4, 0.85, nil)
	pr.ClearPartitions([]int{1})
	twin.fill([]int{1}, 0)
	var want int64
	for _, idx := range pr.pt.Owned[1] {
		want += int64(pr.d.Degree(idx))
	}
	got, err := pr.Step(nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := twin.Step(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 || full.Messages-got.Messages != want {
		t.Fatalf("the step sent %d messages, a full one %d: want %d fewer", got.Messages, full.Messages, want)
	}
	ranks := twin.RankVector()
	for v, r := range pr.RankVector() {
		if math.Float64bits(r) != math.Float64bits(ranks[v]) {
			t.Fatalf("vertex %d: rank %v, the twin's %v", v, r, ranks[v])
		}
	}
}
