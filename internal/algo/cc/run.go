package cc

import (
	"optiflow/internal/cluster"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
)

// Options configure a Connected Components run.
type Options struct {
	// Parallelism is the number of tasks/partitions (4 if zero).
	Parallelism int
	// Workers is the number of cluster workers owning the partitions
	// (defaults to Parallelism).
	Workers int
	// Policy is the recovery policy (Optimistic if nil).
	Policy recovery.Policy
	// Injector decides failures (none if nil).
	Injector failure.Injector
	// OnSample observes every superstep attempt.
	OnSample func(iterate.Sample)
	// Probe additionally receives the live job after every attempt, so
	// callers can inspect the solution set (e.g. count converged
	// vertices for the demo plots).
	Probe func(job *CC, s iterate.Sample)
	// MaxTicks bounds superstep attempts (iterate.DefaultMaxTicks if 0).
	MaxTicks int
	// Supervise, when non-nil, runs the loop under a recovery
	// supervisor: the cluster gets a bounded spare pool, acquire hook
	// and event cap per the config, and failures are handled with
	// retry/backoff, degraded-mode repartitioning and policy
	// escalation instead of the always-heals fiction.
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
	if o.Policy == nil {
		o.Policy = recovery.Optimistic{}
	}
	return o
}

// Result bundles the loop outcome with the computed components.
type Result struct {
	*iterate.Result
	// Components maps every vertex to the minimum vertex ID of its
	// connected component.
	Components map[graph.VertexID]graph.VertexID
	// Cluster exposes membership events for demo narration.
	Cluster cluster.Interface
}

// Run executes Connected Components on g until the workset drains,
// recovering from injected failures per the configured policy.
func Run(g *graph.Graph, opts Options) (*Result, error) { return run(NewColumnar, g, opts) }

// RunBulk executes bulk-iteration Connected Components (NewBulk) until
// a superstep changes no label.
func RunBulk(g *graph.Graph, opts Options) (*Result, error) { return run(NewBulk, g, opts) }

func run(newJob func(*graph.Graph, int) *CC, g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	job := newJob(g, opts.Parallelism)
	cl := opts.Cluster
	if cl == nil {
		var clOpts []cluster.Option
		if opts.Supervise != nil {
			clOpts = opts.Supervise.ClusterOptions()
		}
		cl = cluster.New(opts.Workers, opts.Parallelism, clOpts...)
	}
	loop := &iterate.Loop{
		Name:     job.Name(),
		Step:     job.Step,
		Done:     iterate.DeltaDone(job.WorksetLen),
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
	return &Result{Result: res, Components: job.Components(), Cluster: cl}, nil
}
