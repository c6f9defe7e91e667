package optiflow_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"optiflow"
)

// The facade tests exercise the library exactly as a downstream user
// would: only through the public package.

func TestQuickstartFlow(t *testing.T) {
	g, layout := optiflow.DemoGraph()
	if g.NumVertices() != 16 || len(layout) != 16 {
		t.Fatal("demo graph changed")
	}
	res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
		Parallelism: 4,
		Policy:      optiflow.OptimisticRecovery(),
		Injector:    optiflow.FailWorker(2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := optiflow.TrueComponents(g)
	for v, want := range truth {
		if res.Components[v] != want {
			t.Fatalf("vertex %d wrong component", v)
		}
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
}

func TestPageRankThroughFacade(t *testing.T) {
	g, _ := optiflow.DemoGraphDirected()
	res, err := optiflow.PageRank(g, optiflow.PROptions{
		Parallelism:   4,
		MaxIterations: 100,
		Epsilon:       1e-12,
		Compensation:  optiflow.FixRanks,
		Injector:      optiflow.FailWorker(4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := optiflow.TruePageRank(g, 0.85)
	for v, want := range truth {
		if math.Abs(res.Ranks[v]-want) > 1e-9 {
			t.Fatalf("vertex %d: %g vs %g", v, res.Ranks[v], want)
		}
	}
}

func TestShortestPathsThroughFacade(t *testing.T) {
	g := optiflow.GridGraph(5, 5)
	dist, err := optiflow.ShortestPaths(g, 0, optiflow.VertexProgramOptions{
		Parallelism: 2,
		Injector:    optiflow.FailWorker(2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := optiflow.TrueShortestPaths(g, 0)
	for v, want := range truth {
		if dist[v] != want {
			t.Fatalf("vertex %d: %g vs %g", v, dist[v], want)
		}
	}
}

func TestGeneratorsThroughFacade(t *testing.T) {
	if g := optiflow.TwitterGraph(500, 1); g.NumVertices() != 500 || !g.Directed() {
		t.Fatal("twitter generator wrong")
	}
	if g := optiflow.BarabasiAlbertGraph(100, 2, 1, false); g.NumVertices() != 100 {
		t.Fatal("BA generator wrong")
	}
	if g := optiflow.RMATGraph(6, 4, 1, true); g.NumVertices() != 64 {
		t.Fatal("RMAT generator wrong")
	}
	if g := optiflow.ErdosRenyiGraph(50, 0.1, 1, false); g.NumVertices() != 50 {
		t.Fatal("ER generator wrong")
	}
	if g := optiflow.GridGraph(3, 4); g.NumEdges() != 3*3+2*4 {
		t.Fatal("grid generator wrong")
	}
}

func TestEdgeListThroughFacade(t *testing.T) {
	g := optiflow.NewGraphBuilder(true).AddEdge(1, 2).AddWeightedEdge(2, 3, 4).Build()
	var buf bytes.Buffer
	if err := optiflow.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := optiflow.ReadEdgeList(bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 2 {
		t.Fatalf("roundtrip edges = %d", back.NumEdges())
	}
}

func TestCheckpointPolicyThroughFacade(t *testing.T) {
	g, _ := optiflow.DemoGraph()
	store := optiflow.NewMemoryCheckpointStore()
	res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
		Parallelism: 4,
		Policy:      optiflow.CheckpointRecovery(1, store),
		Injector:    optiflow.FailWorker(2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead.BytesWritten == 0 {
		t.Fatal("checkpoint overhead not reported")
	}

	// Disk-backed checkpoints through the facade, too.
	disk, err := optiflow.NewDiskCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dg, _ := optiflow.DemoGraphDirected()
	pres, err := optiflow.PageRank(dg, optiflow.PROptions{
		Parallelism:   4,
		MaxIterations: 10,
		Policy:        optiflow.CheckpointRecovery(2, disk),
		Injector:      optiflow.FailWorker(5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Overhead.Checkpoints == 0 || pres.Ticks <= pres.Supersteps {
		t.Fatalf("disk rollback did not happen: %+v", pres.Overhead)
	}
}

func TestAsyncCheckpointPolicyThroughFacade(t *testing.T) {
	g, _ := optiflow.DemoGraph()
	failureFree, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	truth := failureFree.Components
	for _, mk := range []func() optiflow.Policy{
		func() optiflow.Policy {
			return optiflow.AsyncCheckpointRecovery(1, optiflow.NewMemoryCheckpointStore(), 4)
		},
		func() optiflow.Policy {
			return optiflow.AsyncIncrementalCheckpointRecovery(1, optiflow.NewMemoryCheckpointStore(), 4)
		},
	} {
		res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
			Parallelism: 4,
			Policy:      mk(),
			Injector:    optiflow.FailWorker(2, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		for v, c := range truth {
			if res.Components[v] != c {
				t.Fatalf("vertex %d: component %d, want %d", v, res.Components[v], c)
			}
		}
		if res.Ticks <= res.Supersteps {
			t.Fatalf("rollback did not happen: ticks %d supersteps %d", res.Ticks, res.Supersteps)
		}
	}
}

func TestCustomPlanThroughFacade(t *testing.T) {
	// Build and run a word-count-style plan directly on the engine —
	// the public dataflow API must be usable standalone.
	plan := optiflow.NewPlan("wordcount")
	words := []string{"roads", "lead", "to", "rome", "all", "roads", "to", "rome"}
	src := plan.Source("words", func(part, nparts int, emit optiflow.Emit) error {
		for i := part; i < len(words); i += nparts {
			emit(words[i])
		}
		return nil
	})
	hash := func(r any) uint64 {
		var h uint64 = 14695981039346656037
		for _, c := range []byte(r.(string)) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		return h
	}
	var mu sync.Mutex
	counts := map[string]int{}
	src.ReduceBy("count", hash, func(_ uint64, vals []any, emit optiflow.Emit) {
		mu.Lock()
		counts[vals[0].(string)] = len(vals)
		mu.Unlock()
	}).Sink("out", func(int, any) error { return nil })

	eng := &optiflow.Engine{Parallelism: 4}
	stats, err := eng.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if counts["roads"] != 2 || counts["to"] != 2 || counts["all"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if stats.Records("words->count") != int64(len(words)) {
		t.Fatalf("edge count = %d", stats.Records("words->count"))
	}
}

func TestFigurePlansThroughFacade(t *testing.T) {
	cc := optiflow.CCFigurePlan().Explain()
	pr := optiflow.PRFigurePlan().Explain()
	if !strings.Contains(cc, "fix-components") || !strings.Contains(pr, "fix-ranks") {
		t.Fatal("figure plans missing compensation")
	}
}

func TestRandomFailuresInjectorThroughFacade(t *testing.T) {
	g := optiflow.TwitterGraph(300, 2)
	res, err := optiflow.PageRank(g, optiflow.PROptions{
		Parallelism:   4,
		MaxIterations: 20,
		Injector:      optiflow.RandomFailures(0.3, 7, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 2 {
		t.Fatalf("max failures exceeded: %d", res.Failures)
	}
	sum := 0.0
	for _, r := range res.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank sum = %g", sum)
	}
}

func TestSupervisedChaosThroughFacade(t *testing.T) {
	g, _ := optiflow.DemoGraph()
	truth := optiflow.TrueComponents(g)
	res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
		Parallelism: 4,
		Policy:      optiflow.NoRecovery(),
		Injector:    optiflow.ChaosFailures(3).WithMaxFailures(2).Until(4),
		Supervise:   &optiflow.SuperviseConfig{Spares: 1, FailureBudget: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range truth {
		if res.Components[v] != want {
			t.Fatalf("vertex %d wrong component", v)
		}
	}
	if res.Failures > 0 && res.TotalEscalations == 0 {
		t.Fatalf("failures=%d but no escalations under the none policy", res.Failures)
	}
}

func TestClusterOptionsThroughFacade(t *testing.T) {
	cl := optiflow.NewCluster(4, 8, optiflow.WithSpares(1), optiflow.WithEventCap(4))
	if cl.Spares() != 1 {
		t.Fatalf("spares = %d", cl.Spares())
	}
	if lost := cl.Fail(1); len(lost) == 0 {
		t.Fatal("failing worker 1 lost no partitions")
	}
	ws, _, err := cl.AcquireN(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("acquired %v, want a single spare", ws)
	}
	for i := 0; i < 10; i++ {
		cl.Note("noise", fmt.Sprintf("event %d", i), nil)
	}
	if n := len(cl.Events()); n != 4 {
		t.Fatalf("event log = %d entries, want capped at 4", n)
	}
	if cl.DroppedEvents() == 0 {
		t.Fatal("no dropped events counted")
	}
}

func TestKMeansThroughFacade(t *testing.T) {
	data := optiflow.SyntheticBlobs(400, 4, 3, 2, 9)
	res, err := optiflow.KMeansCluster(data, optiflow.KMeansOptions{
		Config:   optiflow.KMeansConfig{K: 4, Parallelism: 4, Seed: 2},
		Injector: optiflow.FailWorker(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	noiseFloor := 400.0 * 3 * 4
	if cost := res.Model.Cost(); cost > noiseFloor*2 {
		t.Fatalf("cost %.1f above noise floor", cost)
	}
}

func TestVertexProgramThroughFacade(t *testing.T) {
	g := optiflow.GridGraph(6, 6)
	// Min-ID propagation: a CC re-implementation in a dozen lines.
	prog := optiflow.VertexProgram[uint64, uint64]{
		Name: "min-id",
		Init: func(v optiflow.VertexID) (uint64, []optiflow.VertexMessage[uint64]) {
			var out []optiflow.VertexMessage[uint64]
			for _, n := range g.OutNeighbors(v) {
				out = append(out, optiflow.VertexMessage[uint64]{To: n, Msg: uint64(v)})
			}
			return uint64(v), out
		},
		Compute: func(v optiflow.VertexID, st uint64, msgs []uint64, send func(optiflow.VertexID, uint64)) (uint64, bool) {
			best := st
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best >= st {
				return st, false
			}
			for _, n := range g.OutNeighbors(v) {
				send(n, best)
			}
			return best, true
		},
		Combine:    func(a, b uint64) uint64 { return min(a, b) },
		Compensate: func(v optiflow.VertexID) uint64 { return uint64(v) },
		Reactivate: func(v optiflow.VertexID, st uint64, send func(optiflow.VertexID, uint64)) {
			for _, n := range g.OutNeighbors(v) {
				send(n, st)
			}
		},
	}
	for _, tc := range []struct {
		name string
		opts optiflow.VertexProgramOptions
	}{
		{"optimistic", optiflow.VertexProgramOptions{Parallelism: 4, Injector: optiflow.FailWorker(2, 0)}},
		{"confined", optiflow.VertexProgramOptions{
			Parallelism: 4, Injector: optiflow.FailWorker(2, 0),
			Policy: optiflow.ConfinedRecovery(), AccumulatorLog: true,
		}},
	} {
		res, err := optiflow.RunVertexProgram(prog, g, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for v, st := range res.States {
			if st != 0 {
				t.Fatalf("%s: vertex %d ended with %d, want 0 (connected grid)", tc.name, v, st)
			}
		}
	}
}

func TestDeltaCheckpointThroughFacade(t *testing.T) {
	g := optiflow.GridGraph(8, 8)
	res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
		Parallelism: 4,
		Policy:      optiflow.DeltaCheckpointRecovery(1, optiflow.NewMemoryCheckpointStore()),
		Injector:    optiflow.FailWorker(5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := optiflow.TrueComponents(g)
	for v, want := range truth {
		if res.Components[v] != want {
			t.Fatalf("vertex %d wrong", v)
		}
	}
	if res.Overhead.BytesWritten == 0 {
		t.Fatal("delta log wrote nothing")
	}
}

func TestCompressedStoreThroughFacade(t *testing.T) {
	g, _ := optiflow.DemoGraph()
	store := optiflow.CompressedCheckpointStore(optiflow.NewMemoryCheckpointStore())
	res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
		Parallelism: 4,
		Policy:      optiflow.CheckpointRecovery(1, store),
		Injector:    optiflow.FailWorker(2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := optiflow.TrueComponents(g)
	for v, want := range truth {
		if res.Components[v] != want {
			t.Fatalf("vertex %d wrong after compressed rollback", v)
		}
	}
}

func TestBulkCCThroughFacade(t *testing.T) {
	g, _ := optiflow.DemoGraph()
	bulk, err := optiflow.ConnectedComponentsBulk(g, optiflow.CCOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range delta.Components {
		if bulk.Components[v] != want {
			t.Fatalf("bulk and delta disagree at %d", v)
		}
	}
}

// customJob is a user-defined iterative job driven entirely through the
// public facade: its state is a counter vector partitioned over
// workers; compensation re-zeroes lost partitions and the fixpoint
// (counting to a bound) still completes.
type customJob struct {
	parts  []int
	bound  int
	resets int
}

func (c *customJob) Name() string { return "custom-counter" }

func (c *customJob) SnapshotTo(buf *bytes.Buffer) error {
	for _, v := range c.parts {
		fmt.Fprintf(buf, "%d ", v)
	}
	return nil
}

func (c *customJob) RestoreFrom(data []byte) error {
	vals := strings.Fields(string(data))
	for i := range c.parts {
		fmt.Sscanf(vals[i], "%d", &c.parts[i])
	}
	return nil
}

func (c *customJob) ClearPartitions(parts []int) {
	for _, p := range parts {
		c.parts[p] = 0
	}
}

func (c *customJob) Compensate(lost []int) error { return nil } // zero is a valid restart point

func (c *customJob) ResetToInitial() error {
	for i := range c.parts {
		c.parts[i] = 0
	}
	c.resets++
	return nil
}

func (c *customJob) step(*optiflow.LoopContext) (optiflow.StepStats, error) {
	moved := int64(0)
	for i := range c.parts {
		if c.parts[i] < c.bound {
			c.parts[i]++
			moved++
		}
	}
	return optiflow.StepStats{Updates: moved}, nil
}

func (c *customJob) done() bool {
	for _, v := range c.parts {
		if v < c.bound {
			return false
		}
	}
	return true
}

func TestCustomLoopThroughFacade(t *testing.T) {
	job := &customJob{parts: make([]int, 4), bound: 6}
	loop := &optiflow.Loop{
		Name:     job.Name(),
		Step:     job.step,
		Done:     func(int) bool { return job.done() },
		Job:      job,
		Policy:   optiflow.OptimisticRecovery(),
		Cluster:  optiflow.NewCluster(4, 4),
		Injector: optiflow.FailWorker(3, 1),
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	// The lost partition was re-zeroed mid-run and counted back up: the
	// fixpoint still completes with every partition at the bound.
	for p, v := range job.parts {
		if v != 6 {
			t.Fatalf("partition %d ended at %d", p, v)
		}
	}
	// The failed partition costs extra ticks.
	if res.Ticks <= 6 {
		t.Fatalf("ticks = %d, want > 6 (recovery work)", res.Ticks)
	}
}
