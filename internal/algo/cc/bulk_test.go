package cc

import (
	"slices"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

func TestBulkMatchesUnionFind(t *testing.T) {
	g, _ := gen.Demo()
	truth := ref.ConnectedComponents(g)
	res, err := RunBulk(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, truth)
}

func TestBulkAndDeltaAgree(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Grid(6, 6),
		gen.Components(3, 15, 0.1, 2),
		gen.ErdosRenyi(50, 0.05, 9, false),
	} {
		delta, err := Run(g, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		bulk, err := RunBulk(g, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireComponentsEqual(t, bulk.Components, delta.Components)
	}
}

func TestBulkSendsMoreMessagesThanDelta(t *testing.T) {
	g := gen.Grid(10, 10) // slow diffusion: many converged-early vertices
	delta, err := Run(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := RunBulk(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var deltaMsgs, bulkMsgs int64
	for _, s := range delta.Samples {
		deltaMsgs += s.Stats.Messages
	}
	for _, s := range bulk.Samples {
		bulkMsgs += s.Stats.Messages
	}
	// The paper's §2.1 claim: bulk recomputes converged state, so it
	// must move strictly more data than the delta iteration.
	if bulkMsgs <= deltaMsgs {
		t.Fatalf("bulk %d messages <= delta %d", bulkMsgs, deltaMsgs)
	}
}

func TestBulkOptimisticRecovery(t *testing.T) {
	g := gen.Grid(8, 8)
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).At(3, 1)
	res, err := RunBulk(g, Options{Parallelism: 4, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	requireComponentsEqual(t, res.Components, truth)
}

func TestBulkCheckpointRecovery(t *testing.T) {
	g := gen.Grid(7, 7)
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).At(4, 0)
	res, err := RunBulk(g, Options{
		Parallelism: 4,
		Injector:    inj,
		Policy:      recovery.Restart{},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, truth)
	if res.Ticks <= res.Supersteps {
		t.Fatal("restart should re-execute supersteps")
	}
}

// TestBulkUnderEveryPolicy runs bulk CC — a delta, incremental and
// async job like delta CC — under each rollback policy, with a worker
// failing mid-superstep, and checks the components against union-find.
func TestBulkUnderEveryPolicy(t *testing.T) {
	g := gen.Grid(8, 8)
	truth := ref.ConnectedComponents(g)
	for name, pol := range map[string]func() recovery.Policy{
		"DeltaCheckpoint": func() recovery.Policy { return recovery.NewDeltaCheckpoint(2, checkpoint.NewMemoryStore()) },
		"AsyncCheckpointIncremental": func() recovery.Policy {
			p := recovery.NewAsyncCheckpoint(2, checkpoint.NewMemoryStore(), 2)
			p.Incremental = true
			return p
		},
		"Checkpoint": func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
	} {
		t.Run(name, func(t *testing.T) {
			inj := failure.NewScripted(nil).AtMidStep(5, 40, 1)
			res, err := RunBulk(g, Options{Parallelism: 4, Injector: inj, Policy: pol()})
			if err != nil {
				t.Fatal(err)
			}
			aborted := 0
			for _, s := range res.Samples {
				if s.Aborted {
					aborted++
				}
			}
			if res.Failures != 1 || aborted != 1 {
				t.Fatalf("failures = %d, aborted attempts = %d; want 1 each", res.Failures, aborted)
			}
			requireComponentsEqual(t, res.Components, truth)
		})
	}
}

// TestBulkSeriesPinned pins the bulk iteration's per-superstep series
// on the two graphs of experiment E9's shape: every superstep sends
// every vertex's label along every edge, the update counts fall to
// zero, and the run stops at the superstep that lowers nothing.
func TestBulkSeriesPinned(t *testing.T) {
	twitter := graph.NewBuilder(false)
	gen.Twitter(2000, 20150531).Edges(func(e graph.Edge) { twitter.AddEdge(e.Src, e.Dst) })
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		messages []int64
		updates  []int64
	}{
		{"grid30x30", gen.Grid(30, 30), slices.Repeat([]int64{3480}, 59), []int64{
			899, 897, 894, 890, 885, 879, 872, 864, 855, 845, 834, 822, 809, 795, 780,
			764, 747, 729, 710, 690, 669, 647, 624, 600, 575, 549, 522, 494, 465, 435,
			406, 378, 351, 325, 300, 276, 253, 231, 210, 190, 171, 153, 136, 120, 105,
			91, 78, 66, 55, 45, 36, 28, 21, 15, 10, 6, 3, 1, 0,
		}},
		{"twitter2000", twitter.Build(), slices.Repeat([]int64{31928}, 4), []int64{1999, 1848, 194, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunBulk(tc.g, Options{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			var messages, updates []int64
			for _, s := range res.Samples {
				messages = append(messages, s.Stats.Messages)
				updates = append(updates, s.Stats.Updates)
			}
			if res.Supersteps != len(tc.updates) {
				t.Errorf("%d supersteps, want %d", res.Supersteps, len(tc.updates))
			}
			if !slices.Equal(messages, tc.messages) {
				t.Errorf("messages per superstep %v, want %v", messages, tc.messages)
			}
			if !slices.Equal(updates, tc.updates) {
				t.Errorf("updates per superstep %v, want %v", updates, tc.updates)
			}
			requireComponentsEqual(t, res.Components, ref.ConnectedComponents(tc.g))
		})
	}
}
