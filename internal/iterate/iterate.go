// Package iterate drives iterative dataflow execution: it runs the
// loop body superstep by superstep, consults the failure injector,
// clears lost state partitions, lets the recovery policy decide where
// to resume (compensate / roll back / restart), and reports one sample
// per superstep attempt — exactly the per-iteration data points the
// demo GUI plots.
package iterate

import (
	"errors"
	"fmt"
	"time"

	"optiflow/internal/clock"
	"optiflow/internal/cluster"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
)

// StepStats is what one execution of the loop body reports.
type StepStats struct {
	// Messages counts records exchanged during the superstep — for the
	// demo's algorithms, candidate labels or rank contributions sent to
	// neighbors.
	Messages int64
	// Updates counts state entries changed by the superstep (label
	// updates, rank writes).
	Updates int64
	// Extra carries algorithm-specific series, e.g. the L1 norm of the
	// rank delta.
	Extra map[string]float64
}

// Context describes the superstep attempt the loop body is executing.
// The loop reuses one Context across attempts, so Step implementations
// must read it during the call and not retain the pointer.
type Context struct {
	// Superstep is the logical iteration number. After a rollback the
	// same superstep number is presented again on a later attempt.
	Superstep int
	// Tick counts attempts monotonically; the demo plots use ticks as
	// their x-axis so re-executed and compensated iterations show up.
	Tick int
	// Parallelism is the number of state partitions / parallel tasks.
	Parallelism int
	// Fault, when non-nil, schedules a mid-superstep worker crash for
	// this attempt: the loop body must hand it to the execution engine
	// (Prepared.RunWithFault) so the running plan aborts with a typed
	// *exec.WorkerFailure once the record threshold is crossed. Loop
	// bodies that ignore it (reference implementations, non-engine
	// steps) degrade gracefully to between-superstep semantics — the
	// loop kills the scheduled workers after the attempt commits.
	Fault *exec.FaultInjection
}

// ScheduledFault returns c.Fault, or nil for a nil c (a Step called
// outside a Loop, as tests and benchmarks do).
func (c *Context) ScheduledFault() *exec.FaultInjection {
	if c == nil {
		return nil
	}
	return c.Fault
}

// Sample is the per-attempt data point handed to listeners.
type Sample struct {
	Tick      int
	Superstep int
	Stats     StepStats
	// FailedWorkers and LostPartitions are non-empty if a failure
	// struck during this attempt; Recovery describes the policy's
	// reaction.
	FailedWorkers  []int
	LostPartitions []int
	Recovery       string
	// Aborted reports that the failure struck mid-superstep: the
	// attempt's plan was torn down before committing, so Stats is zero
	// — the partial superstep's statistics are discarded, and the demo
	// plots show the tick as a truncated iteration. Aborted is only
	// ever true on samples where Failed() is also true.
	Aborted bool
	// Retries, Escalations, Degraded and RecoveryDuration are filled on
	// failed samples of supervised loops: acquire retries performed,
	// escalation-ladder rungs climbed, whether degraded-mode
	// repartitioning was needed, and the recovery's wall time.
	Retries          int
	Escalations      int
	Degraded         bool
	RecoveryDuration time.Duration
	Elapsed          time.Duration
}

// Failed reports whether a failure struck during this attempt.
func (s Sample) Failed() bool { return len(s.FailedWorkers) > 0 }

// Result summarises a finished loop.
type Result struct {
	// Supersteps is the number of logical supersteps committed when the
	// loop terminated.
	Supersteps int
	// Ticks is the number of superstep attempts executed, including
	// re-executions after rollbacks and restarts.
	Ticks int
	// Failures counts injected failure events.
	Failures int
	// TotalRetries and TotalEscalations accumulate the supervisor's
	// acquire retries and escalation-ladder climbs (zero on
	// unsupervised loops).
	TotalRetries     int
	TotalEscalations int
	// Samples holds one entry per attempt, in order.
	Samples []Sample
	// Elapsed is the total wall time of the loop.
	Elapsed time.Duration
	// Overhead is the fault-tolerance cost reported by the policy.
	Overhead recovery.Overhead
}

// MessagesSeries returns the per-tick message counts — the demo's
// bottom-right plot for Connected Components.
func (r *Result) MessagesSeries() []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = float64(s.Stats.Messages)
	}
	return out
}

// ExtraSeries returns the per-tick values of a named extra statistic.
func (r *Result) ExtraSeries(name string) []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Stats.Extra[name]
	}
	return out
}

// FailureTicks returns the ticks at which failures struck.
func (r *Result) FailureTicks() []int {
	var out []int
	for _, s := range r.Samples {
		if s.Failed() {
			out = append(out, s.Tick)
		}
	}
	return out
}

// AbortedTicks returns the ticks whose attempts were aborted
// mid-superstep (a subset of FailureTicks).
func (r *Result) AbortedTicks() []int {
	var out []int
	for _, s := range r.Samples {
		if s.Aborted {
			out = append(out, s.Tick)
		}
	}
	return out
}

// DefaultMaxTicks bounds runaway loops.
const DefaultMaxTicks = 100000

// Loop is a configured iterative computation.
type Loop struct {
	// Name identifies the job (checkpoints, diagnostics).
	Name string
	// Step executes one superstep attempt: run the loop-body dataflow
	// and commit its outputs into the iteration state.
	Step func(ctx *Context) (StepStats, error)
	// Done reports, given the number of committed supersteps, whether
	// the iteration has terminated (empty workset for delta iterations,
	// max-iterations/convergence for bulk iterations). It is consulted
	// before every attempt.
	Done func(committed int) bool
	// Job exposes the iteration state to the recovery policy.
	Job recovery.Job
	// Policy is the fault-tolerance strategy (defaults to None).
	Policy recovery.Policy
	// Cluster models worker/partition placement. Required.
	Cluster cluster.Interface
	// Injector decides failures (defaults to no failures).
	Injector failure.Injector
	// Supervisor, if set, takes over the failure path: worker
	// replacement with retry/backoff against a bounded spare pool,
	// degraded-mode repartitioning, failure budgets, policy escalation
	// and recovery-during-recovery folding. Build it with supervise.New
	// over the same Cluster, Policy and Injector. When nil, failures
	// take the legacy path: unconditional replacement and a fatal error
	// if the policy cannot recover.
	Supervisor *supervise.Supervisor
	// OnSample, if set, observes every attempt's sample.
	OnSample func(Sample)
	// MaxTicks bounds the number of attempts (DefaultMaxTicks if zero).
	MaxTicks int
}

// Run executes the loop until Done or failure of the policy.
func (l *Loop) Run() (*Result, error) {
	if l.Step == nil || l.Done == nil {
		return nil, fmt.Errorf("iterate: loop %q needs Step and Done", l.Name)
	}
	if l.Cluster == nil {
		return nil, fmt.Errorf("iterate: loop %q needs a cluster", l.Name)
	}
	if l.Job == nil {
		return nil, fmt.Errorf("iterate: loop %q needs a job", l.Name)
	}
	policy := l.Policy
	if policy == nil {
		policy = recovery.None{}
	}
	injector := l.Injector
	if injector == nil {
		injector = failure.None{}
	}
	maxTicks := l.MaxTicks
	if maxTicks <= 0 {
		maxTicks = DefaultMaxTicks
	}

	if err := policy.Setup(l.Job); err != nil {
		return nil, fmt.Errorf("iterate: loop %q: policy setup: %w", l.Name, err)
	}

	res := &Result{Samples: make([]Sample, 0, 64)}
	start := clock.Now()
	superstep := 0
	// One Context is reused across attempts with its per-attempt fields
	// rewritten; Step implementations must not retain it past the call.
	ctx := &Context{Parallelism: l.Cluster.NumPartitions()}
	for tick := 0; ; tick++ {
		if l.Done(superstep) {
			break
		}
		if tick >= maxTicks {
			return nil, fmt.Errorf("iterate: loop %q exceeded %d superstep attempts without terminating", l.Name, maxTicks)
		}

		attemptStart := clock.Now()
		ctx.Superstep, ctx.Tick = superstep, tick

		// Arm a mid-superstep failure before the attempt starts: the
		// loop body passes ctx.Fault into the execution engine, which
		// aborts the running plan once the record threshold is crossed.
		ctx.Fault = nil
		var midWorkers []int
		if msi, ok := injector.(failure.MidStepInjector); ok {
			if ms, ok := msi.MidStepAt(superstep, tick, l.Cluster.Workers()); ok && len(ms.Workers) > 0 {
				midWorkers = ms.Workers
				var parts []int
				for _, w := range midWorkers {
					parts = append(parts, l.Cluster.PartitionsOf(w)...)
				}
				ctx.Fault = &exec.FaultInjection{
					Workers: midWorkers, Partitions: parts, AfterRecords: ms.AfterRecords,
				}
			}
		}

		stats, err := l.Step(ctx)
		var wf *exec.WorkerFailure
		if err != nil && !errors.As(err, &wf) {
			return nil, fmt.Errorf("iterate: loop %q superstep %d (tick %d): %w", l.Name, superstep, tick, err)
		}

		sample := Sample{Tick: tick, Superstep: superstep}
		var failed []int
		if wf != nil {
			// The engine aborted the attempt mid-superstep. The partial
			// superstep is void: its stats are discarded (Stats stays
			// zero) and the superstep is not committed.
			sample.Aborted = true
			failed = wf.Workers
		} else {
			sample.Stats = stats
			failed = injector.FailuresAt(superstep, tick, l.Cluster.Workers())
			if len(midWorkers) > 0 {
				// A scheduled mid-step failure the plan outran (or that
				// the loop body ignored): the workers still die, at the
				// superstep boundary.
				failed = supervise.Union(failed, midWorkers)
			}
		}

		// Only workers that actually die trigger recovery. Injectors may
		// name workers that are already dead; acting on those would
		// acquire a spurious spare worker and record a phantom failure.
		died, lost := failWorkers(l.Cluster, failed)

		// With the attempt committed and nobody dead, run the policy's
		// superstep epilogue (e.g. the periodic checkpoint snapshot). A
		// worker dying inside the epilogue joins the recovery path below
		// — the superstep itself committed, but the dead worker's state
		// is gone, and the policy decides where to resume exactly as for
		// a failure inside the attempt.
		epilogueFailed := false
		if len(died) == 0 && !sample.Aborted {
			if err := policy.AfterSuperstep(l.Job, superstep); err != nil {
				var pwf *exec.WorkerFailure
				if !errors.As(err, &pwf) {
					return nil, fmt.Errorf("iterate: loop %q superstep %d: %w", l.Name, superstep, err)
				}
				epilogueFailed = true
				died, lost = failWorkers(l.Cluster, pwf.Workers)
			}
		}

		switch {
		case len(died) > 0 && l.Supervisor != nil:
			res.Failures++
			out, err := l.Supervisor.Recover(l.Job, recovery.Failure{
				Superstep: superstep, Tick: tick,
				Workers: died, LostPartitions: lost,
			})
			if err != nil {
				return nil, fmt.Errorf("iterate: loop %q superstep %d: %w", l.Name, superstep, err)
			}
			res.Failures += out.FoldedFailures
			res.TotalRetries += out.Retries
			res.TotalEscalations += out.Escalations
			sample.FailedWorkers = out.Workers
			sample.LostPartitions = out.LostPartitions
			sample.Recovery = out.Description
			sample.Retries = out.Retries
			sample.Escalations = out.Escalations
			sample.Degraded = out.Degraded
			sample.RecoveryDuration = out.Duration
			superstep = out.ResumeAt
		case len(died) > 0:
			round := recovery.Failure{Superstep: superstep, Tick: tick, Workers: died, LostPartitions: lost}
			var resumeAt int
			for {
				res.Failures++
				l.Cluster.AcquireN(len(round.Workers))
				l.Job.ClearPartitions(round.LostPartitions)
				var err error
				if resumeAt, err = policy.OnFailure(l.Job, round); err == nil {
					break
				}
				// A worker that died under the recovery is one more failure
				// to recover from, not the policy's.
				var rwf *exec.WorkerFailure
				if errors.As(err, &rwf) {
					round.Workers, round.LostPartitions = failWorkers(l.Cluster, rwf.Workers)
				}
				if rwf == nil || len(round.Workers) == 0 {
					return nil, fmt.Errorf("iterate: loop %q superstep %d: %w", l.Name, superstep, err)
				}
				died, lost = supervise.Union(died, round.Workers), supervise.Union(lost, round.LostPartitions)
			}
			sample.FailedWorkers = died
			sample.LostPartitions = lost
			sample.Recovery = supervise.Describe(policy.PolicyName(), superstep, resumeAt)
			superstep = resumeAt
		case sample.Aborted || epilogueFailed:
			// Aborted attempt whose scheduled victims were already dead,
			// or an epilogue failure naming only already-dead workers:
			// nothing further was lost — retry the superstep.
		default:
			superstep++
			if l.Supervisor != nil {
				l.Supervisor.NoteCommitted(superstep)
			}
		}

		sample.Elapsed = clock.Since(attemptStart)
		res.Samples = append(res.Samples, sample)
		res.Ticks++
		if l.OnSample != nil {
			l.OnSample(sample)
		}
	}

	// Fence for policies with background work (the async checkpoint
	// pipeline): normal termination must not leave an epoch half-written
	// — await the in-flight commits (or surface their failure) before
	// declaring the run done.
	if fin, ok := policy.(recovery.Finisher); ok {
		if err := fin.Finish(l.Job); err != nil {
			return nil, fmt.Errorf("iterate: loop %q: policy finish: %w", l.Name, err)
		}
	}

	res.Supersteps = superstep
	res.Elapsed = clock.Since(start)
	res.Overhead = policy.Overhead()
	return res, nil
}

// failWorkers fails those of the listed workers that are alive — only a
// worker that actually dies triggers recovery — and returns them with the
// partitions they owned.
func failWorkers(cl cluster.Interface, workers []int) (died, lost []int) {
	for _, w := range workers {
		if cl.IsAlive(w) {
			died = append(died, w)
			lost = append(lost, cl.Fail(w)...)
		}
	}
	return died, lost
}

// BulkDone returns a termination predicate for bulk iterations: stop
// after maxIterations committed supersteps, or earlier once converged
// (if non-nil) reports true.
func BulkDone(maxIterations int, converged func(committed int) bool) func(int) bool {
	return func(committed int) bool {
		if committed >= maxIterations {
			return true
		}
		return converged != nil && committed > 0 && converged(committed)
	}
}

// DeltaDone returns a termination predicate for delta iterations: stop
// once the workset is empty.
func DeltaDone(worksetLen func() int) func(int) bool {
	return func(int) bool { return worksetLen() == 0 }
}
