// Package kmeans implements Lloyd's algorithm as a bulk-iteration
// dataflow — a second machine-learning workload (next to ALS) for the
// optimistic recovery mechanism. The iteration state is the centroid
// table; a worker crash destroys some centroids, and the compensation
// function re-seeds them with deterministically chosen data points, a
// consistent state from which Lloyd's iteration converges again. On
// well-separated data the re-seeded run reaches the same clustering
// cost as the failure-free one.
package kmeans

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"optiflow/internal/cluster"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/state"
)

// Point is a dense feature vector.
type Point []float64

// KMeans is a k-means clustering job. It implements recovery.Job.
type KMeans struct {
	points   [][]Point // partition -> points owned by that partition
	k        int
	dim      int
	par      int
	seed     int64
	engine   *exec.Engine
	prepared *exec.Prepared // step plan, compiled once and reused

	centroids *state.Store[Point] // key = cluster id 0..k-1
	sums      *state.Store[Point] // scratch: per-cluster vector sums
	counts    *state.Store[float64]
	owned     [][]uint64 // partition -> cluster IDs whose centroid it owns
	initial   []Point    // deterministic farthest-point seeds

	lastShift float64
}

// Config parameterises a run.
type Config struct {
	// K is the number of clusters (8 if zero).
	K int
	// Parallelism is the task/partition count (4 if zero).
	Parallelism int
	// Seed drives initial centroid choice and compensation re-seeding.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 8
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// New prepares a k-means job over the data set.
func New(data []Point, cfg Config) (*KMeans, error) {
	cfg = cfg.withDefaults()
	if len(data) < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points for k=%d", len(data), cfg.K)
	}
	km := &KMeans{
		points:    make([][]Point, cfg.Parallelism),
		k:         cfg.K,
		dim:       len(data[0]),
		par:       cfg.Parallelism,
		seed:      cfg.Seed,
		engine:    &exec.Engine{Parallelism: cfg.Parallelism},
		centroids: state.NewStore[Point]("centroids", cfg.Parallelism),
		sums:      state.NewStore[Point]("centroid-sums", cfg.Parallelism),
		counts:    state.NewStore[float64]("centroid-counts", cfg.Parallelism),
		owned:     make([][]uint64, cfg.Parallelism),
		lastShift: math.Inf(1),
	}
	for i, p := range data {
		if len(p) != km.dim {
			return nil, fmt.Errorf("kmeans: point %d has dimension %d, want %d", i, len(p), km.dim)
		}
		part := graph.Partition(graph.VertexID(i), cfg.Parallelism)
		km.points[part] = append(km.points[part], p)
	}
	for c := 0; c < cfg.K; c++ {
		part := graph.Partition(graph.VertexID(c), cfg.Parallelism)
		km.owned[part] = append(km.owned[part], uint64(c))
	}
	km.initial = km.farthestPointSeeds()
	km.seedInitial()
	return km, nil
}

// farthestPointSeeds picks k well-spread initial centroids: a seeded
// random first point, then greedily the point farthest from the chosen
// set. Deterministic, so a lost centroid can always be re-seeded to its
// exact initial value (the k-means analogue of "reset lost vertices to
// their initial labels").
func (km *KMeans) farthestPointSeeds() []Point {
	var all []Point
	for _, ps := range km.points {
		all = append(all, ps...)
	}
	rng := rand.New(rand.NewSource(km.seed))
	seeds := make([]Point, 0, km.k)
	seeds = append(seeds, append(Point(nil), all[rng.Intn(len(all))]...))
	minD := make([]float64, len(all))
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	for len(seeds) < km.k {
		last := seeds[len(seeds)-1]
		bestIdx, bestD := 0, -1.0
		for i, p := range all {
			d := 0.0
			for j := range p {
				diff := p[j] - last[j]
				d += diff * diff
			}
			if d < minD[i] {
				minD[i] = d
			}
			if minD[i] > bestD {
				bestIdx, bestD = i, minD[i]
			}
		}
		seeds = append(seeds, append(Point(nil), all[bestIdx]...))
	}
	return seeds
}

// seedCentroid returns cluster c's deterministic initial centroid —
// the value compensation restores after a loss.
func (km *KMeans) seedCentroid(c uint64) Point {
	return append(Point(nil), km.initial[c]...)
}

func (km *KMeans) seedInitial() {
	for c := uint64(0); c < uint64(km.k); c++ {
		km.centroids.Put(c, km.seedCentroid(c))
	}
	km.lastShift = math.Inf(1)
}

// Name implements recovery.Job.
func (km *KMeans) Name() string { return "kmeans" }

// Centroids materialises the current centroid table.
func (km *KMeans) Centroids() []Point {
	out := make([]Point, km.k)
	km.centroids.Range(func(c uint64, p Point) bool {
		out[c] = append(Point(nil), p...)
		return true
	})
	return out
}

// Cost returns the sum of squared distances of every point to its
// nearest centroid (the k-means objective).
func (km *KMeans) Cost() float64 {
	cents := km.Centroids()
	cost := 0.0
	for _, ps := range km.points {
		for _, p := range ps {
			_, d := nearest(cents, p)
			cost += d
		}
	}
	return cost
}

func nearest(cents []Point, p Point) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, cent := range cents {
		if cent == nil {
			continue
		}
		d := 0.0
		for i := range p {
			diff := p[i] - cent[i]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

type assignment struct {
	cluster uint64
	sum     Point
	count   float64
}

func byCluster(rec any) uint64 { return rec.(assignment).cluster }

func (km *KMeans) StepPlan() *dataflow.Plan {
	plan := dataflow.NewPlan("kmeans-step")

	points := plan.Source("points", func(part, _ int, emit dataflow.Emit) error {
		cents := km.Centroids()
		// Assign + pre-aggregate locally: emit one partial sum per
		// cluster per partition (a built-in combiner).
		partial := make([]assignment, km.k)
		for c := range partial {
			partial[c] = assignment{cluster: uint64(c), sum: make(Point, km.dim)}
		}
		for _, p := range km.points[part] {
			c, _ := nearest(cents, p)
			for i := range p {
				partial[c].sum[i] += p[i]
			}
			partial[c].count++
		}
		for _, a := range partial {
			if a.count > 0 {
				emit(a)
			}
		}
		return nil
	})

	// Partial sums merge incrementally as they arrive; the first
	// partial is copied so the accumulator never aliases a record.
	recompute := points.ReduceByCombining("recompute-centroids", byCluster,
		func(acc, rec any) any {
			a := rec.(assignment)
			if acc == nil {
				return &assignment{
					cluster: a.cluster,
					sum:     append(Point(nil), a.sum...),
					count:   a.count,
				}
			}
			t := acc.(*assignment)
			t.count += a.count
			for i := range a.sum {
				t.sum[i] += a.sum[i]
			}
			return t
		},
		func(key uint64, acc any, emit dataflow.Emit) {
			t := acc.(*assignment)
			emit(assignment{cluster: key, sum: t.sum, count: t.count})
		})

	recompute.Sink("collect-centroids", func(_ int, rec any) error {
		a := rec.(assignment)
		km.sums.Put(a.cluster, a.sum)
		km.counts.Put(a.cluster, a.count)
		return nil
	})
	plan.MarkState("collect-centroids")
	plan.CompensateExternally("centroid re-seeding via recovery.Job.Compensate")
	return plan
}

// Step implements the loop body: one Lloyd iteration. A mid-superstep
// abort needs no reconciliation: the aborted plan only wrote the
// sums/counts scratch stores, which are cleared at the start of every
// attempt; the centroid table is untouched until the post-run fold.
func (km *KMeans) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	km.sums.ClearAll()
	km.counts.ClearAll()
	// The plan reads centroid state at run time, so it is prepared
	// once and reused every superstep.
	if km.prepared == nil {
		p, err := km.engine.Prepare(km.StepPlan())
		if err != nil {
			return iterate.StepStats{}, fmt.Errorf("kmeans: superstep: %v", err)
		}
		km.prepared = p
	}
	stats, err := km.prepared.RunWithFault(ctx.ScheduledFault())
	if err != nil {
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("kmeans: superstep: %w", err)
	}
	shift := 0.0
	for c := uint64(0); c < uint64(km.k); c++ {
		sum, ok := km.sums.Get(c)
		count, _ := km.counts.Get(c)
		if !ok || count == 0 {
			continue // empty cluster keeps its centroid
		}
		old, _ := km.centroids.Get(c)
		next := make(Point, km.dim)
		for i := range next {
			next[i] = sum[i] / count
			d := next[i] - old[i]
			shift += d * d
		}
		km.centroids.Put(c, next)
	}
	km.lastShift = math.Sqrt(shift)
	return iterate.StepStats{
		Messages: stats.Outputs("points"),
		Updates:  int64(km.k),
		Extra:    map[string]float64{"shift": km.lastShift, "cost": km.Cost()},
	}, nil
}

// SnapshotTo implements recovery.Job.
func (km *KMeans) SnapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(km.lastShift); err != nil {
		return fmt.Errorf("kmeans: encoding snapshot: %v", err)
	}
	return km.centroids.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (km *KMeans) RestoreFrom(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&km.lastShift); err != nil {
		return fmt.Errorf("kmeans: decoding snapshot: %v", err)
	}
	return km.centroids.DecodeFrom(dec)
}

// ClearPartitions implements recovery.Job: the crash destroys the
// centroid partitions of the failed workers (the data points are
// re-readable input, like the graph datasets of the demo).
func (km *KMeans) ClearPartitions(parts []int) {
	for _, p := range parts {
		km.centroids.ClearPartition(p)
	}
}

// Compensate implements recovery.Job: re-seed every lost centroid with
// its deterministic initial data point. The resulting table is a valid
// k-means state, and Lloyd's iteration monotonically reduces the cost
// from it.
func (km *KMeans) Compensate(lost []int) error {
	for _, p := range lost {
		for _, c := range km.owned[p] {
			km.centroids.Put(c, km.seedCentroid(c))
		}
	}
	km.lastShift = math.Inf(1)
	return nil
}

// ResetToInitial implements recovery.Job.
func (km *KMeans) ResetToInitial() error {
	km.centroids.ClearAll()
	km.seedInitial()
	return nil
}

// Options configure a Run.
type Options struct {
	Config
	Workers       int
	MaxIterations int
	// Epsilon stops once the centroid shift drops below it (1e-9 if
	// zero; set negative to disable).
	Epsilon  float64
	Policy   recovery.Policy
	Injector failure.Injector
	OnSample func(iterate.Sample)
	Probe    func(job *KMeans, s iterate.Sample)
	MaxTicks int
}

// Result bundles the loop outcome with the trained model.
type Result struct {
	*iterate.Result
	Model   *KMeans
	Cluster cluster.Interface
}

// Run executes Lloyd's algorithm until the centroids stop moving.
func Run(data []Point, opts Options) (*Result, error) {
	cfg := opts.Config.withDefaults()
	if opts.Workers <= 0 {
		opts.Workers = cfg.Parallelism
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 50
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 1e-9
	}
	if opts.Policy == nil {
		opts.Policy = recovery.Optimistic{}
	}
	job, err := New(data, cfg)
	if err != nil {
		return nil, err
	}
	cl := cluster.New(opts.Workers, cfg.Parallelism)
	var converged func(int) bool
	if opts.Epsilon > 0 {
		converged = func(int) bool { return job.lastShift < opts.Epsilon }
	}
	loop := &iterate.Loop{
		Name:     job.Name(),
		Step:     job.Step,
		Done:     iterate.BulkDone(opts.MaxIterations, converged),
		Job:      job,
		Policy:   opts.Policy,
		Cluster:  cl,
		Injector: opts.Injector,
		MaxTicks: opts.MaxTicks,
		OnSample: func(s iterate.Sample) {
			if opts.OnSample != nil {
				opts.OnSample(s)
			}
			if opts.Probe != nil {
				opts.Probe(job, s)
			}
		},
	}
	res, err := loop.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Model: job, Cluster: cl}, nil
}

// SyntheticBlobs generates n points around k well-separated Gaussian
// blobs in dim dimensions — clusterable ground truth where re-seeded
// runs reach the same optimum.
func SyntheticBlobs(n, k, dim int, spread float64, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]Point, k)
	for c := range centers {
		centers[c] = make(Point, dim)
		for i := range centers[c] {
			// Diagonal placement guarantees well-separated blobs.
			centers[c][i] = float64(c)*100 + rng.Float64()*10
		}
	}
	out := make([]Point, n)
	for i := range out {
		c := centers[i%k]
		p := make(Point, dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*spread
		}
		out[i] = p
	}
	return out
}
