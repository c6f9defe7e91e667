// Package optiflow is an iterative dataflow runtime with optimistic,
// compensation-based recovery — a from-scratch Go reproduction of the
// system demonstrated in "Optimistic Recovery for Iterative Dataflows
// in Action" (SIGMOD 2015), which showcases the recovery mechanism of
// Schelter et al., CIKM 2013, on Apache Flink.
//
// The library contains a parallel dataflow engine (Map/Reduce/Join/
// CoGroup operators over hash exchanges), bulk and delta iterations
// with partitioned state, a cluster model whose worker failures destroy
// state partitions, and these fault-tolerance policies:
//
//   - Optimistic (the paper's contribution): no checkpoints; after a
//     failure a compensation function restores a consistent state and
//     the fixpoint iteration converges to the correct result anyway.
//   - Checkpoint: classic rollback recovery with periodic snapshots
//     (memory, disk, or gzip-compressed stores).
//   - AsyncCheckpoint: the same, with the snapshot written in the
//     background as per-partition epochs that one commit record makes
//     visible; its incremental form writes only changed partitions.
//   - DeltaCheckpoint: per-key delta logs, committed as a chain of
//     epoch slots in the same store.
//   - Confined: CoRAL-style accumulator replay for monotone vertex
//     programs.
//   - Restart: restart the iteration from scratch (the lineage
//     fallback for iterative jobs).
//   - None: abort on failure.
//
// Ready-made algorithms: Connected Components (delta and bulk
// iterations with fix-components compensation), PageRank (bulk
// iteration with fix-ranks), single-source shortest paths, ALS matrix
// factorization, k-means clustering, and a generic Pregel-style
// vertex-centric layer with pluggable compensation.
//
// Quick start:
//
//	g, _ := optiflow.DemoGraph()
//	res, err := optiflow.ConnectedComponents(g, optiflow.CCOptions{
//		Parallelism: 4,
//		Policy:      optiflow.OptimisticRecovery(),
//		Injector:    optiflow.FailWorker(3, 1), // kill worker 1 in superstep 3
//	})
package optiflow

import (
	"io"

	"optiflow/internal/algo/als"
	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/kmeans"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/algo/sssp"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/state"
	"optiflow/internal/supervise"
	"optiflow/internal/vertexcentric"
)

// Core graph types.
type (
	// Graph is an immutable CSR graph; build one with NewGraphBuilder
	// or a generator.
	Graph = graph.Graph
	// GraphBuilder accumulates edges into a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Edge is a directed, optionally weighted edge.
	Edge = graph.Edge
	// Layout maps vertices to 2-D points for visualisation.
	Layout = gen.Layout
)

// Iteration and recovery types.
type (
	// Sample is the per-superstep-attempt data point (messages, updates,
	// failure annotations) — what the demo GUI plots.
	Sample = iterate.Sample
	// LoopResult summarises a finished iterative job.
	LoopResult = iterate.Result
	// StepStats is what one superstep reports.
	StepStats = iterate.StepStats
	// Policy is a fault-tolerance strategy.
	Policy = recovery.Policy
	// Overhead quantifies failure-free fault-tolerance cost.
	Overhead = recovery.Overhead
	// Injector decides which workers fail in which supersteps.
	Injector = failure.Injector
	// Cluster models workers owning state partitions (the in-process
	// simulation; see ClusterBackend for the shared interface).
	Cluster = cluster.Cluster
	// ClusterBackend is the interface shared by the in-process
	// simulation and the multi-process TCP cluster
	// (internal/cluster/proc), so loops run unchanged in both modes.
	ClusterBackend = cluster.Interface
	// CheckpointStore is stable storage for rollback recovery.
	CheckpointStore = checkpoint.Store
)

// Dataflow construction types, for building custom iterative jobs.
type (
	// Emit hands a record to the downstream operators.
	Emit = dataflow.Emit
	// KeyFunc extracts a record's partitioning/grouping key.
	KeyFunc = dataflow.KeyFunc
	// SourceFunc produces the records of one partition.
	SourceFunc = dataflow.SourceFunc
	// SinkFunc consumes the records of one partition.
	SinkFunc = dataflow.SinkFunc
	// Plan is a DAG of dataflow operators.
	Plan = dataflow.Plan
	// Dataset is an operator output handle during plan building.
	Dataset = dataflow.Dataset
	// Engine executes plans with fixed parallelism.
	Engine = exec.Engine
	// EngineStats reports per-edge record counts of a plan execution.
	EngineStats = exec.Stats
	// Loop drives an iterative job superstep by superstep.
	Loop = iterate.Loop
)

// The typed columnar path (DESIGN.md §2.6): graph supersteps whose
// payloads are numeric run as column batches over a CSR adjacency with
// no per-record boxing. ConnectedComponents, PageRank and ShortestPaths
// run on it; these exports let custom jobs build their own columnar
// supersteps.
type (
	// ColValue is the payload universe of the columnar path.
	ColValue = exec.ColValue
	// ColKeys is a borrowed column of dense destination vertex indices
	// handed to Apply callbacks; consume in place, do not retain.
	ColKeys = exec.KeyCol
	// ColVals is the borrowed payload column parallel to a ColKeys.
	ColVals[V ColValue] = exec.ValCol[V]
	// ColBatch is one pooled columnar exchange batch.
	ColBatch[V ColValue] = exec.ColBatch[V]
	// ColEngine executes columnar supersteps over a fixed number of
	// partitions, inline on the caller's goroutine.
	ColEngine[V ColValue] = exec.ColEngine[V]
	// ColStep describes one columnar superstep (source rows -> CSR edge
	// expansion -> hash exchange -> monotone fold -> apply). Its Source
	// hands the engine a partition's rows as two borrowed columns,
	// expanded in order until the next Source call.
	ColStep[V ColValue] = exec.ColStep[V]
	// ColStats reports what a columnar superstep did.
	ColStats = exec.ColStats
	// DenseGraph is a graph's CSR adjacency with dense int32 indexing.
	DenseGraph = graph.Dense
	// DensePartitioning maps dense vertex indices onto partitions.
	DensePartitioning = graph.Partitioning
	// DenseStore is a dense per-partition column store for vertex state.
	DenseStore[V any] = state.DenseStore[V]
	// ColWorkset is a columnar delta-iteration workset.
	ColWorkset[V any] = state.ColWorkset[V]
)

// NewGraphBuilder returns a builder for a directed or undirected graph.
func NewGraphBuilder(directed bool) *GraphBuilder { return graph.NewBuilder(directed) }

// ReadEdgeList parses a whitespace-separated edge list ("src dst
// [weight]" lines, #-comments allowed).
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadEdgeList(r, directed)
}

// WriteEdgeList writes g as a parseable edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewPlan returns an empty dataflow plan.
func NewPlan(name string) *Plan { return dataflow.NewPlan(name) }

// Graph generators.

// DemoGraph returns the paper's small hand-crafted demo graph
// (undirected, three connected components) and its fixed layout.
func DemoGraph() (*Graph, Layout) { return gen.Demo() }

// DemoGraphDirected returns the directed demo variant used by the
// PageRank tab (includes one dangling vertex).
func DemoGraphDirected() (*Graph, Layout) { return gen.DemoDirected() }

// TwitterGraph generates the synthetic stand-in for the paper's Twitter
// follower snapshot: a directed Barabási–Albert power-law graph with n
// vertices.
func TwitterGraph(n int, seed int64) *Graph { return gen.Twitter(n, seed) }

// BarabasiAlbertGraph generates a scale-free graph by preferential
// attachment with m edges per new vertex.
func BarabasiAlbertGraph(n, m int, seed int64, directed bool) *Graph {
	return gen.BarabasiAlbert(n, m, seed, directed)
}

// RMATGraph generates a recursive-matrix graph with 2^scale vertices.
func RMATGraph(scale, edgeFactor int, seed int64, directed bool) *Graph {
	return gen.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, 0.05, seed, directed)
}

// ErdosRenyiGraph generates a G(n, p) random graph.
func ErdosRenyiGraph(n int, p float64, seed int64, directed bool) *Graph {
	return gen.ErdosRenyi(n, p, seed, directed)
}

// GridGraph generates a rows x cols lattice.
func GridGraph(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// Recovery policies.

// OptimisticRecovery returns the paper's checkpoint-free policy: zero
// failure-free overhead; on failure the algorithm's compensation
// function restores a consistent state and execution continues.
func OptimisticRecovery() Policy { return recovery.Optimistic{} }

// CheckpointRecovery returns pessimistic rollback recovery: snapshot
// every interval supersteps into store, restore-and-redo on failure.
func CheckpointRecovery(interval int, store CheckpointStore) Policy {
	return recovery.NewCheckpoint(interval, store)
}

// AsyncCheckpointRecovery returns rollback recovery with the
// asynchronous, partition-sharded checkpoint pipeline: the superstep
// barrier pays only a cheap copy-on-write capture, while partition
// encoding and the store writes run on `parallelism` background
// encoders, committed atomically per epoch. Failures only ever restore
// fully committed epochs — an in-flight or torn epoch is never a
// restore target. The job must support shared-snapshot capture (the
// built-in algorithms do).
func AsyncCheckpointRecovery(interval int, store CheckpointStore, parallelism int) Policy {
	return recovery.NewAsyncCheckpoint(interval, store, parallelism)
}

// AsyncIncrementalCheckpointRecovery is AsyncCheckpointRecovery
// submitting only the partitions whose version changed since the last
// epoch; unchanged partitions are stitched from older epochs at restore
// time. Note the documented limitation: under hash partitioning every
// partition tends to stay hot, so this rarely beats full checkpoints —
// prefer DeltaCheckpointRecovery.
func AsyncIncrementalCheckpointRecovery(interval int, store CheckpointStore, parallelism int) Policy {
	c := recovery.NewAsyncCheckpoint(interval, store, parallelism)
	c.Incremental = true
	return c
}

// DeltaCheckpointRecovery returns rollback recovery with per-key delta
// logs: a base snapshot once, then only the state changes per interval,
// compacted periodically. On delta iterations this tracks the shrinking
// update stream and writes a fraction of what full checkpoints cost.
func DeltaCheckpointRecovery(interval int, store CheckpointStore) Policy {
	return recovery.NewDeltaCheckpoint(interval, store)
}

// ConfinedRecovery rebuilds lost vertices in place from accumulator
// replicas logged during failure-free execution — recovery touches only
// the lost vertices, at the cost of one combine per delivered message
// while nothing fails. Supported by vertex-centric programs with a
// Combine function and AccumulatorLog enabled; sound when Compute is a
// monotone fold of combined messages (min/max style).
func ConfinedRecovery() Policy { return recovery.Confined{} }

// RestartRecovery restarts the iteration from superstep zero on
// failure.
func RestartRecovery() Policy { return recovery.Restart{} }

// NoRecovery aborts the job on the first failure.
func NoRecovery() Policy { return recovery.None{} }

// NewMemoryCheckpointStore returns an in-memory checkpoint store.
func NewMemoryCheckpointStore() CheckpointStore { return checkpoint.NewMemoryStore() }

// NewDiskCheckpointStore returns a checkpoint store writing synced
// snapshot files under dir.
func NewDiskCheckpointStore(dir string) (CheckpointStore, error) {
	return checkpoint.NewDiskStore(dir)
}

// CompressedCheckpointStore wraps a store with gzip compression:
// snapshots shrink several-fold at the cost of checkpoint CPU time.
func CompressedCheckpointStore(inner CheckpointStore) CheckpointStore {
	return checkpoint.Compressed(inner)
}

// Failure injection.

// FailWorker schedules worker to fail during the given superstep —
// the API equivalent of the demo GUI's failure button.
func FailWorker(superstep, worker int) *failure.Scripted {
	return failure.NewScripted(nil).At(superstep, worker)
}

// ScriptedFailures builds an injector from a superstep -> workers plan.
func ScriptedFailures(plan map[int][]int) *failure.Scripted {
	return failure.NewScripted(plan)
}

// FailWorkerMidStep schedules worker to fail while the given
// superstep's dataflow is still executing, after the attempt has
// processed afterRecords records: the running plan is aborted and the
// attempt retried under the configured recovery policy — the GUI
// attendee pressing the failure button mid-iteration.
func FailWorkerMidStep(superstep int, afterRecords int64, worker int) *failure.Scripted {
	return failure.NewScripted(nil).AtMidStep(superstep, afterRecords, worker)
}

// RandomFailures fails a random live worker with probability p per
// superstep, at most maxFailures times (0 = unlimited). Deterministic
// given seed: it is ChaosFailures(seed) with only the boundary surface
// armed.
func RandomFailures(p float64, seed int64, maxFailures int) Injector {
	return failure.NewChaos(seed).WithProbabilities(p, 0, 0).WithMaxFailures(maxFailures)
}

// NoFailures returns an injector that never fails anything.
func NoFailures() Injector { return failure.None{} }

// ChaosFailures returns the seeded chaos-soak injector: random boundary
// failures, mid-superstep aborts and failures during recovery rounds,
// each drawn from its own seed-derived rng so the full schedule is
// reproducible. Tune with its WithProbabilities / WithMaxFailures /
// Until methods; pair with SuperviseConfig so recovery can keep up.
func ChaosFailures(seed int64) *failure.Chaos { return failure.NewChaos(seed) }

// Supervision: self-healing recovery with a bounded spare pool,
// acquire retry/backoff, degraded-mode repartitioning and policy
// escalation. Set the Supervise field of CCOptions / PROptions, or
// build a Loop Supervisor directly for custom jobs.
type (
	// SuperviseConfig configures the recovery supervisor.
	SuperviseConfig = supervise.Config
	// SuperviseOutcome summarises one supervised recovery.
	SuperviseOutcome = supervise.Outcome

	// ClusterFactory provisions a cluster backend for a run — wrap
	// NewCluster with ClusterOptions for the in-process simulation, or
	// use NewProcCluster for real worker processes.
	ClusterFactory = supervise.ClusterFactory
)

// NewSupervisor builds a recovery supervisor for a custom Loop: assign
// it to the Loop's Supervisor field and construct the cluster with
// cfg.ClusterOptions() so the spare pool and hooks take effect.
func NewSupervisor(cl ClusterBackend, policy Policy, injector Injector, cfg SuperviseConfig) *supervise.Supervisor {
	return supervise.New(cl, policy, injector, cfg)
}

// Algorithms.

// CCOptions configure ConnectedComponents.
type CCOptions = cc.Options

// CCResult is the outcome of ConnectedComponents.
type CCResult = cc.Result

// ConnectedComponents runs the delta-iteration Connected Components of
// Fig. 1a (min-label diffusion with fix-components compensation).
func ConnectedComponents(g *Graph, opts CCOptions) (*CCResult, error) { return cc.Run(g, opts) }

// PROptions configure PageRank.
type PROptions = pagerank.Options

// PRResult is the outcome of PageRank.
type PRResult = pagerank.Result

// PRCompensation selects the compensation function of a PageRank run.
type PRCompensation = pagerank.Compensation

// PageRank runs the bulk-iteration PageRank of Fig. 1b (with fix-ranks
// compensation: lost probability mass is uniformly redistributed over
// the lost vertices).
func PageRank(g *Graph, opts PROptions) (*PRResult, error) { return pagerank.Run(g, opts) }

// PageRank compensation variants (experiment E8).
var (
	// FixRanks is the paper's compensation: redistribute the lost mass
	// uniformly over the lost vertices.
	FixRanks PRCompensation = pagerank.UniformRedistribution
	// ResetAllUniform resets every rank to 1/n.
	ResetAllUniform PRCompensation = pagerank.ResetAllUniform
	// ZeroFillRenormalize zeroes lost ranks and rescales survivors.
	ZeroFillRenormalize PRCompensation = pagerank.ZeroFillRenormalize
)

// ConnectedComponentsBulk runs Connected Components as a *bulk*
// iteration, recomputing every label each superstep — the baseline that
// motivates delta iterations in §2.1. Results are identical to
// ConnectedComponents; the message volume is not.
func ConnectedComponentsBulk(g *Graph, opts CCOptions) (*CCResult, error) { return cc.RunBulk(g, opts) }

// ALS types: matrix factorization with alternating least squares, the
// third algorithm class of the underlying CIKM'13 work.
type (
	// Rating is one observed entry of a rating matrix.
	Rating = als.Rating
	// Ratings is an indexed sparse rating matrix.
	Ratings = als.Ratings
	// ALSConfig parameterises the factorization model.
	ALSConfig = als.Config
	// ALSOptions configure an ALS training run.
	ALSOptions = als.Options
	// ALSResult is the outcome of an ALS run.
	ALSResult = als.Result
	// ALSModel is the trained factorization.
	ALSModel = als.ALS
)

// NewRatings indexes a list of rating entries.
func NewRatings(entries []Rating) *Ratings { return als.NewRatings(entries) }

// SyntheticRatings generates a rating matrix with known low-rank
// structure plus Gaussian noise — the stand-in for a real
// recommendation dataset.
func SyntheticRatings(numUsers, numItems, rank int, density, noise float64, seed int64) *Ratings {
	return als.SyntheticRatings(numUsers, numItems, rank, density, noise, seed)
}

// ALSFactorize trains a low-rank factorization with alternating least
// squares under the configured recovery policy; the compensation
// function re-initializes lost factor vectors with seeded random
// values.
func ALSFactorize(ratings *Ratings, opts ALSOptions) (*ALSResult, error) {
	return als.Run(ratings, opts)
}

// VertexProgramOptions configure a vertex-centric run.
type VertexProgramOptions = vertexcentric.Options

// ShortestPaths computes single-source shortest path distances as a
// delta iteration with compensation-based recovery — the same min-fold
// job as ConnectedComponents, so every recovery policy CC supports
// applies. Unreached vertices map to +Inf.
//
// The iteration runs on the columnar engine unless opts requests
// confined recovery (AccumulatorLog, or the Confined policy): confined
// recovery's replica protocol exists only in the vertex-centric runner,
// so those runs execute the same relaxations as a vertex program on
// the general engine. The engine follows from the requested policy;
// there is no option that picks it.
func ShortestPaths(g *Graph, source VertexID, opts VertexProgramOptions) (map[VertexID]float64, error) {
	dist, _, err := sssp.Run(g, source, opts)
	return dist, err
}

// Ground truth helpers (the demo precomputes true values to plot
// convergence, §3.2 footnote 4).

// TrueComponents computes the exact component labeling via union-find.
func TrueComponents(g *Graph) map[VertexID]VertexID { return ref.ConnectedComponents(g) }

// TruePageRank computes exact ranks via sequential power iteration.
func TruePageRank(g *Graph, damping float64) map[VertexID]float64 {
	ranks, _ := ref.PageRank(g, ref.PageRankOptions{Damping: damping})
	return ranks
}

// TrueShortestPaths computes exact distances via Dijkstra.
func TrueShortestPaths(g *Graph, source VertexID) map[VertexID]float64 {
	return ref.ShortestPaths(g, source)
}

// Figure plans (Fig. 1 of the paper, for Explain/Dot rendering).

// CCFigurePlan returns the conceptual Connected Components dataflow of
// Fig. 1a, including the fix-components compensation node.
func CCFigurePlan() *Plan { return cc.FigurePlan() }

// PRFigurePlan returns the conceptual PageRank dataflow of Fig. 1b,
// including the fix-ranks compensation node.
func PRFigurePlan() *Plan { return pagerank.FigurePlan() }

// Vertex-centric programming: write your own recoverable fixpoint
// algorithm by supplying Init/Compute plus the recovery hooks
// (Compensate / Reactivate, optionally Combine for confined recovery).
type (
	// VertexProgram defines a Pregel-style computation with recovery
	// hooks; S is the vertex state type, M the message type.
	VertexProgram[S, M any] = vertexcentric.Program[S, M]
	// VertexMessage is a message in flight to a vertex.
	VertexMessage[M any] = vertexcentric.Outbound[M]
	// VertexResult is the outcome of a vertex-centric run.
	VertexResult[S, M any] = vertexcentric.Result[S, M]
)

// RunVertexProgram executes a vertex-centric program until no messages
// remain, recovering from injected failures per the configured policy.
func RunVertexProgram[S, M any](prog VertexProgram[S, M], g *Graph, opts VertexProgramOptions) (*VertexResult[S, M], error) {
	return vertexcentric.Run(prog, g, opts)
}

// K-Means types: Lloyd's algorithm as a bulk iteration, with centroid
// re-seeding compensation.
type (
	// KMeansPoint is a dense feature vector.
	KMeansPoint = kmeans.Point
	// KMeansConfig parameterises the clustering model.
	KMeansConfig = kmeans.Config
	// KMeansOptions configure a clustering run.
	KMeansOptions = kmeans.Options
	// KMeansResult is the outcome of a clustering run.
	KMeansResult = kmeans.Result
	// KMeansModel is the trained clustering.
	KMeansModel = kmeans.KMeans
)

// KMeansCluster runs Lloyd's algorithm under the configured recovery
// policy; the compensation function re-seeds lost centroids with
// deterministically chosen data points.
func KMeansCluster(data []KMeansPoint, opts KMeansOptions) (*KMeansResult, error) {
	return kmeans.Run(data, opts)
}

// SyntheticBlobs generates points around k well-separated Gaussian
// blobs — clusterable ground truth for the k-means experiments.
func SyntheticBlobs(n, k, dim int, spread float64, seed int64) []KMeansPoint {
	return kmeans.SyntheticBlobs(n, k, dim, spread, seed)
}

// Custom iterative jobs: implement RecoveryJob, drive it with a Loop,
// and pick any Policy — the same machinery the built-in algorithms use.
type (
	// RecoveryJob is the surface a recovery policy operates on:
	// snapshot, restore, clear, compensate, reset.
	RecoveryJob = recovery.Job
	// RecoveryFailure describes one failure event as seen by a policy.
	RecoveryFailure = recovery.Failure
	// LoopContext describes the superstep attempt a loop body executes.
	LoopContext = iterate.Context
)

// ClusterOption configures NewCluster (spare pool bounds, acquisition
// hooks, event-log caps).
type ClusterOption = cluster.Option

// WithSpares bounds the cluster's spare pool: AcquireN grants at most n
// replacement workers over the cluster's lifetime before acquisitions
// are denied and the supervisor falls back to degraded mode.
func WithSpares(n int) ClusterOption { return cluster.WithSpares(n) }

// WithEventCap bounds the cluster's event log to the most recent n
// events (dropped events stay countable) for long soak runs.
func WithEventCap(n int) ClusterOption { return cluster.WithEventCap(n) }

// NewCluster models numWorkers workers owning numPartitions state
// partitions round-robin, for driving a custom Loop.
func NewCluster(numWorkers, numPartitions int, opts ...ClusterOption) *Cluster {
	return cluster.New(numWorkers, numPartitions, opts...)
}

// NewProcCluster boots the multi-process cluster: numWorkers real
// worker-daemon processes (this binary re-executed) connected to an
// in-process coordinator over loopback TCP, behind the same
// ClusterBackend interface as NewCluster — except Fail delivers an
// actual SIGKILL. The returned stop func kills any workers still
// running. The hosting binary must call WorkerProcessMain first thing
// in main.
func NewProcCluster(numWorkers, numPartitions int) (ClusterBackend, func(), error) {
	return proc.Provision(numWorkers, numPartitions, nil)
}

// WorkerProcessMain checks whether this process was spawned as a
// worker daemon of a multi-process cluster and, if so, runs the worker
// and exits — it never returns in that case. Call it first thing in
// main (before flag parsing) in any binary that uses NewProcCluster.
func WorkerProcessMain() { proc.MaybeChildMode() }

// BulkTermination returns a Loop termination predicate for bulk
// iterations (max supersteps, optional convergence test).
func BulkTermination(maxIterations int, converged func(committed int) bool) func(int) bool {
	return iterate.BulkDone(maxIterations, converged)
}

// DeltaTermination returns a Loop termination predicate for delta
// iterations (stop on empty workset).
func DeltaTermination(worksetLen func() int) func(int) bool {
	return iterate.DeltaDone(worksetLen)
}
