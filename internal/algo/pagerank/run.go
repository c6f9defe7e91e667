package pagerank

import (
	"optiflow/internal/cluster"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
)

// Options configure a PageRank run.
type Options struct {
	// Parallelism is the number of tasks/partitions (4 if zero).
	Parallelism int
	// Workers is the number of cluster workers (defaults to
	// Parallelism).
	Workers int
	// Damping is the damping factor (DefaultDamping if zero).
	Damping float64
	// MaxIterations bounds committed supersteps (50 if zero).
	MaxIterations int
	// Epsilon terminates early once the per-superstep L1 delta drops
	// below it (0 disables early termination).
	Epsilon float64
	// Compensation is the compensation function used by optimistic
	// recovery (UniformRedistribution if nil).
	Compensation Compensation
	// LocalCombine enables the pre-shuffle combiner on rank
	// contributions.
	LocalCombine bool
	// Policy is the recovery policy (Optimistic if nil).
	Policy recovery.Policy
	// Injector decides failures (none if nil).
	Injector failure.Injector
	// OnSample observes every superstep attempt.
	OnSample func(iterate.Sample)
	// Probe additionally receives the live job after every attempt.
	Probe func(job *PR, s iterate.Sample)
	// MaxTicks bounds superstep attempts (iterate.DefaultMaxTicks if 0).
	MaxTicks int
	// Supervise, when non-nil, runs the loop under a recovery
	// supervisor (bounded spare pool, retry/backoff, degraded-mode
	// repartitioning, policy escalation). See internal/supervise.
	Supervise *supervise.Config
	// Cluster, when non-nil, is the cluster backend to run on (e.g. a
	// multi-process proc.Coordinator). Workers and Supervise cluster
	// options are then ignored — the caller provisioned the cluster.
	// When nil an in-process simulation is constructed.
	Cluster cluster.Interface
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	if o.Workers <= 0 {
		o.Workers = o.Parallelism
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 50
	}
	if o.Policy == nil {
		o.Policy = recovery.Optimistic{}
	}
	return o
}

// Result bundles the loop outcome with the final rank vector.
type Result struct {
	*iterate.Result
	// Ranks is the final rank per vertex (summing to one).
	Ranks map[graph.VertexID]float64
	// Cluster exposes membership events for demo narration.
	Cluster cluster.Interface
}

// Run executes PageRank on g for the configured number of iterations
// (or until the L1 delta drops below Epsilon), recovering from injected
// failures per the configured policy.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	job := NewColumnar(g, opts.Parallelism, opts.Damping, opts.Compensation)
	job.SetLocalCombine(opts.LocalCombine)
	cl := opts.Cluster
	if cl == nil {
		var clOpts []cluster.Option
		if opts.Supervise != nil {
			clOpts = opts.Supervise.ClusterOptions()
		}
		cl = cluster.New(opts.Workers, opts.Parallelism, clOpts...)
	}
	var converged func(int) bool
	if opts.Epsilon > 0 {
		converged = func(int) bool { return job.LastL1() < opts.Epsilon }
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
	if opts.Supervise != nil {
		loop.Supervisor = supervise.New(cl, opts.Policy, opts.Injector, *opts.Supervise)
	}
	res, err := loop.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Ranks: job.RankVector(), Cluster: cl}, nil
}
