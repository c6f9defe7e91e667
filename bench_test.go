// Benchmarks regenerating the measurable artifact behind every figure
// of the paper (run with `go test -bench=. -benchmem`):
//
//	BenchmarkFig1a / Fig1b   — Figure 1: dataflow plan construction + rendering
//	BenchmarkFig2_CCDemo     — Figures 2/3: CC demo scenario with two failures
//	BenchmarkFig4_PRDemo     — Figures 4/5: PageRank demo scenario with a failure
//	BenchmarkTwitter_*       — §3.1 large-graph scenario (Twitter substitute)
//	BenchmarkOverhead_*      — E6: failure-free cost per recovery policy
//	BenchmarkRecovery_*      — E7: recovery cost per policy (failure at iteration 6)
//	BenchmarkCompensation_*  — E8: compensation-function variants
//	BenchmarkBulkDelta_*     — E9: bulk vs delta iterations; BenchmarkCombiner_*: combiner ablation
//	BenchmarkALS_* / BenchmarkKMeans_* — E10/E12: the ML extensions
//	BenchmarkConfined_*      — E11: confined recovery
//	BenchmarkEngine_*        — microbenchmarks of the dataflow engine substrate
package optiflow_test

import (
	"bytes"
	"testing"

	"optiflow"
	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/checkpoint"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
	"optiflow/internal/state"
)

const benchGraphSize = 20000

func benchTwitter(b *testing.B) *optiflow.Graph {
	b.Helper()
	return optiflow.TwitterGraph(benchGraphSize, 20150531)
}

func BenchmarkFig1a_CCPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := optiflow.CCFigurePlan()
		if plan.Explain() == "" {
			b.Fatal("empty explain")
		}
	}
}

func BenchmarkFig1b_PRPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := optiflow.PRFigurePlan()
		if plan.Explain() == "" {
			b.Fatal("empty explain")
		}
	}
}

func BenchmarkFig2_CCDemo(b *testing.B) {
	g, _ := optiflow.DemoGraph()
	truth := optiflow.TrueComponents(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
			Parallelism: 4,
			Injector:    optiflow.ScriptedFailures(map[int][]int{0: {0}, 2: {1}}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Components[7] != truth[7] {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkFig4_PRDemo(b *testing.B) {
	g, _ := optiflow.DemoGraphDirected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.PageRank(g, optiflow.PROptions{
			Parallelism:   4,
			MaxIterations: 30,
			Injector:      optiflow.FailWorker(4, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchTwitterUndirected rebuilds the Twitter-like graph undirected
// for CC, pre-sized from the known edge count.
func benchTwitterUndirected(b *testing.B) *optiflow.Graph {
	b.Helper()
	src := benchTwitter(b)
	und := optiflow.NewGraphBuilder(false).Reserve(src.NumVertices(), src.NumEdges())
	src.Edges(func(e optiflow.Edge) { und.AddEdge(e.Src, e.Dst) })
	return und.Build()
}

func BenchmarkTwitter_CC(b *testing.B) {
	g := benchTwitterUndirected(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
			Parallelism: 4,
			Injector:    optiflow.FailWorker(2, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwitter_PR(b *testing.B) {
	g := benchTwitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.PageRank(g, optiflow.PROptions{
			Parallelism:   4,
			MaxIterations: 10,
			Injector:      optiflow.FailWorker(4, 2),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchOverhead measures failure-free PageRank under one policy — the
// E6 rows.
func benchOverhead(b *testing.B, mkPolicy func(b *testing.B) optiflow.Policy) {
	g := benchTwitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.PageRank(g, optiflow.PROptions{
			Parallelism:   4,
			MaxIterations: 5,
			Policy:        mkPolicy(b),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverhead_NoFaultTolerance(b *testing.B) {
	benchOverhead(b, func(*testing.B) optiflow.Policy { return optiflow.NoRecovery() })
}

func BenchmarkOverhead_Optimistic(b *testing.B) {
	benchOverhead(b, func(*testing.B) optiflow.Policy { return optiflow.OptimisticRecovery() })
}

func BenchmarkOverhead_CheckpointK1Memory(b *testing.B) {
	benchOverhead(b, func(*testing.B) optiflow.Policy {
		return optiflow.CheckpointRecovery(1, optiflow.NewMemoryCheckpointStore())
	})
}

func BenchmarkOverhead_CheckpointK2Memory(b *testing.B) {
	benchOverhead(b, func(*testing.B) optiflow.Policy {
		return optiflow.CheckpointRecovery(2, optiflow.NewMemoryCheckpointStore())
	})
}

func BenchmarkOverhead_CheckpointK5Memory(b *testing.B) {
	benchOverhead(b, func(*testing.B) optiflow.Policy {
		return optiflow.CheckpointRecovery(5, optiflow.NewMemoryCheckpointStore())
	})
}

func BenchmarkOverhead_CheckpointK1Disk(b *testing.B) {
	benchOverhead(b, func(b *testing.B) optiflow.Policy {
		store, err := optiflow.NewDiskCheckpointStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return optiflow.CheckpointRecovery(1, store)
	})
}

// benchRecovery measures PageRank-to-convergence with one failure — the
// E7 rows.
func benchRecovery(b *testing.B, mkPolicy func() optiflow.Policy) {
	g := benchTwitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.PageRank(g, optiflow.PROptions{
			Parallelism:   4,
			MaxIterations: 100,
			Epsilon:       1e-9,
			Policy:        mkPolicy(),
			Injector:      optiflow.FailWorker(5, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecovery_Optimistic(b *testing.B) {
	benchRecovery(b, optiflow.OptimisticRecovery)
}

func BenchmarkRecovery_RollbackK2(b *testing.B) {
	benchRecovery(b, func() optiflow.Policy {
		return optiflow.CheckpointRecovery(2, optiflow.NewMemoryCheckpointStore())
	})
}

func BenchmarkRecovery_Restart(b *testing.B) {
	benchRecovery(b, optiflow.RestartRecovery)
}

// benchCompensation measures the E8 compensation variants.
func benchCompensation(b *testing.B, comp optiflow.PRCompensation) {
	g := benchTwitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.PageRank(g, optiflow.PROptions{
			Parallelism:   4,
			MaxIterations: 100,
			Epsilon:       1e-9,
			Compensation:  comp,
			Injector:      optiflow.FailWorker(5, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompensation_FixRanks(b *testing.B) {
	benchCompensation(b, optiflow.FixRanks)
}

func BenchmarkCompensation_ResetAllUniform(b *testing.B) {
	benchCompensation(b, optiflow.ResetAllUniform)
}

func BenchmarkCompensation_ZeroFillRenormalize(b *testing.B) {
	benchCompensation(b, optiflow.ZeroFillRenormalize)
}

// Engine microbenchmarks: the substrate behind every experiment. Test
// records are boxed into []any outside the timed region so the numbers
// measure engine allocations, not the harness's interface conversions.

// benchRecords boxes n sequential uint64s once, outside the timer.
func benchRecords(n int) []any {
	data := make([]any, n)
	for j := range data {
		data[j] = uint64(j)
	}
	return data
}

func BenchmarkEngine_ShuffleReduce(b *testing.B) {
	const records = 100000
	data := benchRecords(records)
	eng := &exec.Engine{Parallelism: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := dataflow.NewPlan("shuffle-bench")
		src := plan.Source("numbers", func(part, nparts int, emit dataflow.Emit) error {
			for j := part; j < records; j += nparts {
				emit(data[j])
			}
			return nil
		})
		red := src.ReduceBy("sum-mod-1000",
			func(r any) uint64 { return r.(uint64) % 1000 },
			func(key uint64, vals []any, emit dataflow.Emit) {
				var s uint64
				for _, v := range vals {
					s += v.(uint64)
				}
				emit(s)
			})
		var sink int64
		red.Sink("count", func(int, any) error { sink++; return nil })
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(records * 8))
}

// BenchmarkEngine_ShuffleCombine is the same workload through the
// streaming hash-aggregation path: per-key accumulators folded as
// records arrive, no group materialization.
func BenchmarkEngine_ShuffleCombine(b *testing.B) {
	const records = 100000
	data := benchRecords(records)
	eng := &exec.Engine{Parallelism: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := dataflow.NewPlan("combine-bench")
		src := plan.Source("numbers", func(part, nparts int, emit dataflow.Emit) error {
			for j := part; j < records; j += nparts {
				emit(data[j])
			}
			return nil
		})
		red := src.ReduceByCombining("sum-mod-1000",
			func(r any) uint64 { return r.(uint64) % 1000 },
			func(acc, rec any) any {
				if acc == nil {
					s := rec.(uint64)
					return &s
				}
				*acc.(*uint64) += rec.(uint64)
				return acc
			},
			func(key uint64, acc any, emit dataflow.Emit) {
				emit(*acc.(*uint64))
			})
		var sink int64
		red.Sink("count", func(int, any) error { sink++; return nil })
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(records * 8))
}

func BenchmarkEngine_HashJoin(b *testing.B) {
	const rows = 50000
	data := benchRecords(rows)
	eng := &exec.Engine{Parallelism: 4}
	key := func(r any) uint64 { return r.(uint64) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := dataflow.NewPlan("join-bench")
		left := plan.Source("left", func(part, nparts int, emit dataflow.Emit) error {
			for j := part; j < rows; j += nparts {
				emit(data[j])
			}
			return nil
		})
		right := plan.Source("right", func(part, nparts int, emit dataflow.Emit) error {
			for j := part; j < rows; j += nparts {
				emit(data[j])
			}
			return nil
		})
		joined := left.Join("match", right, key, key, dataflow.JoinInner,
			func(l, r any, emit dataflow.Emit) { emit(l) })
		joined.Sink("out", func(int, any) error { return nil })
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// Checkpoint-pipeline benchmarks: barrier stall per
// policy. The op is exactly what the iteration barrier waits for —
// AfterSuperstep on a populated job. For the async pipeline the
// background write is drained outside the timer (Finish), so the
// numbers isolate the stall the loop pays, which is the pipeline's
// whole claim: capture + queue insert instead of encode + store write.

func benchCCJob() *cc.CC {
	und := optiflow.NewGraphBuilder(false)
	gen.Twitter(benchGraphSize, 3).Edges(func(e graph.Edge) { und.AddEdge(e.Src, e.Dst) })
	return cc.NewColumnar(und.Build(), 8)
}

func benchPRJob() *pagerank.PR {
	return pagerank.NewColumnar(gen.Twitter(benchGraphSize, 1), 8, 0.85, nil)
}

func benchCheckpointBarrier(b *testing.B, job recovery.IncrementalJob, pol optiflow.Policy, dirty func(i int)) {
	b.Helper()
	if err := pol.Setup(job); err != nil {
		b.Fatal(err)
	}
	fin, isAsync := pol.(recovery.Finisher)
	if isAsync {
		if err := fin.Finish(job); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirty != nil {
			b.StopTimer()
			dirty(i)
			b.StartTimer()
		}
		if err := pol.AfterSuperstep(job, i); err != nil {
			b.Fatal(err)
		}
		if isAsync {
			b.StopTimer()
			if err := fin.Finish(job); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// dirtyOnePartition pre-encodes partition 0 and returns a mutator that
// restores it in place, bumping the partition's version so incremental
// policies see exactly one changed partition per superstep.
func dirtyOnePartition(b *testing.B, job recovery.IncrementalJob) func(int) {
	b.Helper()
	var buf bytes.Buffer
	if err := job.SnapshotPartition(0, &buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	return func(int) {
		if err := job.RestorePartition(0, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointBarrier_CC_Sync(b *testing.B) {
	benchCheckpointBarrier(b, benchCCJob(), recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()), nil)
}

func BenchmarkCheckpointBarrier_CC_Async(b *testing.B) {
	benchCheckpointBarrier(b, benchCCJob(), recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 4), nil)
}

func BenchmarkCheckpointBarrier_CC_AsyncIncremental(b *testing.B) {
	job := benchCCJob()
	pol := recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 4)
	pol.Incremental = true
	benchCheckpointBarrier(b, job, pol, dirtyOnePartition(b, job))
}

func BenchmarkCheckpointBarrier_PR_Sync(b *testing.B) {
	benchCheckpointBarrier(b, benchPRJob(), recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()), nil)
}

func BenchmarkCheckpointBarrier_PR_Async(b *testing.B) {
	benchCheckpointBarrier(b, benchPRJob(), recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 4), nil)
}

// BenchmarkCheckpointCompress exercises the gzip path of Compressed
// stores and asserts the writer pool holds: steady-state saves must not
// re-allocate the ~1.4 MB deflate state per snapshot.
func BenchmarkCheckpointCompress(b *testing.B) {
	job := benchPRJob()
	var buf bytes.Buffer
	if err := job.SnapshotTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	store := optiflow.CompressedCheckpointStore(optiflow.NewMemoryCheckpointStore())
	save := func() {
		if err := store.Save("bench", 0, data); err != nil {
			b.Fatal(err)
		}
	}
	save() // warm the pool before counting
	if allocs := testing.AllocsPerRun(5, save); allocs > 64 {
		b.Fatalf("compressed save allocates %v objects/op; gzip.Writer pooling broken?", allocs)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save()
	}
}

func BenchmarkCheckpoint_SnapshotEncode(b *testing.B) {
	g := gen.Twitter(benchGraphSize, 1)
	pr := pagerank.NewColumnar(g, 4, 0.85, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := pr.SnapshotTo(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkCheckpoint_RoundTrip(b *testing.B) {
	g := gen.Grid(60, 60)
	job := cc.NewColumnar(g, 4)
	var buf bytes.Buffer
	if err := job.SnapshotTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := job.RestoreFrom(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatePartitioning(b *testing.B) {
	s := state.NewStore[uint64]("bench", 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i), uint64(i))
	}
}

func BenchmarkGraphPartition(b *testing.B) {
	var acc int
	for i := 0; i < b.N; i++ {
		acc += graph.Partition(graph.VertexID(i), 16)
	}
	if acc < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkSuperstep_CC measures one delta-iteration superstep in
// isolation (first superstep on a fresh job).
func BenchmarkSuperstep_CC(b *testing.B) {
	und := optiflow.NewGraphBuilder(false)
	gen.Twitter(benchGraphSize, 3).Edges(func(e graph.Edge) { und.AddEdge(e.Src, e.Dst) })
	g := und.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		job := cc.NewColumnar(g, 4)
		b.StartTimer()
		if _, err := job.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity: recovery policies survive a snapshot/restore cycle at bench
// scale (guards the benches above against silently broken state).
func BenchmarkRecoveryPolicySnapshot(b *testing.B) {
	g := gen.Twitter(5000, 9)
	job := pagerank.NewColumnar(g, 4, 0.85, nil)
	pol := recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	if err := pol.Setup(job); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pol.AfterSuperstep(job, i); err != nil {
			b.Fatal(err)
		}
		if _, err := pol.OnFailure(job, recovery.Failure{Superstep: i, LostPartitions: []int{1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style smoke check keeping the benchmarks honest about
// correctness (runs as a test, not a bench).
func TestBenchScenariosProduceCorrectResults(t *testing.T) {
	g := optiflow.TwitterGraph(2000, 20150531)
	truth := optiflow.TruePageRank(g, 0.85)
	res, err := optiflow.PageRank(g, optiflow.PROptions{
		Parallelism: 4, MaxIterations: 100, Epsilon: 1e-10,
		Injector: optiflow.FailWorker(5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range truth {
		if d := res.Ranks[v] - want; d > 1e-7 || d < -1e-7 {
			t.Fatalf("vertex %d: rank %g vs truth %g", v, res.Ranks[v], want)
		}
	}
}

// Benches for the E9/E10 extensions.

func BenchmarkBulkDelta_DeltaCC(b *testing.B) {
	g := gen.Grid(30, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{Parallelism: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkDelta_BulkCC(b *testing.B) {
	g := gen.Grid(30, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optiflow.ConnectedComponentsBulk(g, optiflow.CCOptions{Parallelism: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombiner_PageRankPlain(b *testing.B) {
	g := benchTwitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optiflow.PageRank(g, optiflow.PROptions{Parallelism: 4, MaxIterations: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombiner_PageRankLocalCombine(b *testing.B) {
	g := benchTwitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optiflow.PageRank(g, optiflow.PROptions{Parallelism: 4, MaxIterations: 5, LocalCombine: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkALS_FailureFree(b *testing.B) {
	ratings := optiflow.SyntheticRatings(200, 150, 5, 0.2, 0.02, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.ALSFactorize(ratings, optiflow.ALSOptions{
			Config:        optiflow.ALSConfig{Rank: 5, Parallelism: 4, Seed: 3},
			MaxIterations: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkALS_OptimisticRecovery(b *testing.B) {
	ratings := optiflow.SyntheticRatings(200, 150, 5, 0.2, 0.02, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.ALSFactorize(ratings, optiflow.ALSOptions{
			Config:        optiflow.ALSConfig{Rank: 5, Parallelism: 4, Seed: 3},
			MaxIterations: 10,
			Injector:      optiflow.FailWorker(4, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverhead_DeltaLogCheckpointCC(b *testing.B) {
	g := gen.Grid(30, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
			Parallelism: 4,
			Policy:      optiflow.DeltaCheckpointRecovery(1, optiflow.NewMemoryCheckpointStore()),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverhead_FullCheckpointCC(b *testing.B) {
	g := gen.Grid(30, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
			Parallelism: 4,
			Policy:      optiflow.CheckpointRecovery(1, optiflow.NewMemoryCheckpointStore()),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans_FailureFree(b *testing.B) {
	data := optiflow.SyntheticBlobs(2000, 6, 4, 12, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.KMeansCluster(data, optiflow.KMeansOptions{
			Config: optiflow.KMeansConfig{K: 6, Parallelism: 4, Seed: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans_OptimisticRecovery(b *testing.B) {
	data := optiflow.SyntheticBlobs(2000, 6, 4, 12, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.KMeansCluster(data, optiflow.KMeansOptions{
			Config:   optiflow.KMeansConfig{K: 6, Parallelism: 4, Seed: 4},
			Injector: optiflow.FailWorker(1, 2),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfined_SSSPRecovery(b *testing.B) {
	g := optiflow.GridGraph(40, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := optiflow.ShortestPaths(g, 0, optiflow.VertexProgramOptions{
			Parallelism:    4,
			Policy:         optiflow.ConfinedRecovery(),
			Injector:       optiflow.FailWorker(20, 1),
			AccumulatorLog: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
