package iterate

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/recovery"
)

// counterJob is a minimal iterative job: its "state" is a counter that
// the step increments; snapshots serialise the counter.
type counterJob struct {
	counter int
	cleared []int
	comps   int
	resets  int
}

func (c *counterJob) Name() string { return "counter" }

func (c *counterJob) SnapshotTo(buf *bytes.Buffer) error {
	_, err := fmt.Fprintf(buf, "%d", c.counter)
	return err
}

func (c *counterJob) RestoreFrom(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%d", &c.counter)
	return err
}

func (c *counterJob) ClearPartitions(parts []int) { c.cleared = append(c.cleared, parts...) }
func (c *counterJob) Compensate(lost []int) error { c.comps++; return nil }
func (c *counterJob) ResetToInitial() error       { c.counter = 0; c.resets++; return nil }

func (c *counterJob) step(*Context) (StepStats, error) {
	c.counter++
	return StepStats{Messages: int64(c.counter), Updates: 1}, nil
}

func newLoop(job *counterJob, target int) *Loop {
	return &Loop{
		Name:    "counter",
		Step:    job.step,
		Done:    func(committed int) bool { return committed >= target },
		Job:     job,
		Cluster: cluster.New(4, 4),
	}
}

func TestLoopRunsToTermination(t *testing.T) {
	job := &counterJob{}
	res, err := newLoop(job, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 5 || res.Ticks != 5 || res.Failures != 0 {
		t.Fatalf("res = %+v", res)
	}
	if job.counter != 5 {
		t.Fatalf("job ran %d steps", job.counter)
	}
	if len(res.Samples) != 5 {
		t.Fatalf("%d samples", len(res.Samples))
	}
	for i, s := range res.Samples {
		if s.Tick != i || s.Superstep != i || s.Failed() {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
	if got := res.MessagesSeries(); got[0] != 1 || got[4] != 5 {
		t.Fatalf("messages series = %v", got)
	}
}

func TestLoopValidation(t *testing.T) {
	if _, err := (&Loop{}).Run(); err == nil {
		t.Fatal("empty loop accepted")
	}
	job := &counterJob{}
	l := newLoop(job, 1)
	l.Cluster = nil
	if _, err := l.Run(); err == nil {
		t.Fatal("missing cluster accepted")
	}
	l2 := newLoop(job, 1)
	l2.Job = nil
	if _, err := l2.Run(); err == nil {
		t.Fatal("missing job accepted")
	}
}

func TestLoopMaxTicks(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 1000)
	l.MaxTicks = 10
	_, err := l.Run()
	if err == nil || !strings.Contains(err.Error(), "10 superstep attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepErrorAborts(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	boom := errors.New("step exploded")
	l.Step = func(ctx *Context) (StepStats, error) {
		if ctx.Tick == 2 {
			return StepStats{}, boom
		}
		return job.step(ctx)
	}
	_, err := l.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestOptimisticFailureFlow(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Policy = recovery.Optimistic{}
	l.Injector = failure.NewScripted(nil).At(2, 1)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Optimistic recovery continues: still 5 ticks, one compensated.
	if res.Ticks != 5 || res.Failures != 1 {
		t.Fatalf("res = %+v", res)
	}
	if job.comps != 1 {
		t.Fatalf("compensations = %d", job.comps)
	}
	if len(job.cleared) == 0 {
		t.Fatal("lost partitions were not cleared before compensation")
	}
	s := res.Samples[2]
	if !s.Failed() || len(s.LostPartitions) == 0 || !strings.Contains(s.Recovery, "compensated") {
		t.Fatalf("failure sample = %+v", s)
	}
	if got := res.FailureTicks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("failure ticks = %v", got)
	}
	// The worker is gone; a fresh one owns its partitions.
	if l.Cluster.IsAlive(1) {
		t.Fatal("failed worker still alive")
	}
	if len(l.Cluster.Workers()) != 4 {
		t.Fatalf("workers = %v", l.Cluster.Workers())
	}
}

// dyingJob loses worker victim under its first compensation, the way a
// worker-hosted job does when the worker dies under the request.
type dyingJob struct {
	counterJob
	victim int
}

func (d *dyingJob) Compensate(lost []int) error {
	if d.comps++; d.comps == 1 {
		return fmt.Errorf("compensation: %w", &exec.WorkerFailure{Workers: []int{d.victim}})
	}
	return nil
}

func TestWorkerDyingUnderRecoveryIsFolded(t *testing.T) {
	job := &dyingJob{victim: 2}
	l := newLoop(&job.counterJob, 5)
	l.Job = job
	l.Policy = recovery.Optimistic{}
	l.Injector = failure.NewScripted(nil).At(2, 1)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 5 || res.Failures != 2 || job.comps != 2 {
		t.Fatalf("%d ticks, %d failures, %d compensations; want 5, 2, 2", res.Ticks, res.Failures, job.comps)
	}
	if s := res.Samples[2]; len(s.FailedWorkers) != 2 || l.Cluster.IsAlive(2) || len(l.Cluster.Workers()) != 4 {
		t.Fatalf("failure sample = %+v, workers = %v", s, l.Cluster.Workers())
	}
	// Naming nobody alive, the failure is the policy's error.
	job = &dyingJob{victim: 1}
	l = newLoop(&job.counterJob, 5)
	l.Job, l.Policy, l.Injector = job, recovery.Optimistic{}, failure.NewScripted(nil).At(2, 1)
	if _, err := l.Run(); err == nil {
		t.Fatal("a worker failure naming only the dead worker was swallowed")
	}
}

func TestCheckpointFailureRollsBack(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 6)
	l.Policy = recovery.NewCheckpoint(2, checkpoint.NewMemoryStore())
	l.Injector = failure.NewScripted(nil).At(4, 0)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Failure at superstep 4 rolls back to the snapshot taken after
	// superstep 3, re-executing superstep 4: one extra tick.
	if res.Supersteps != 6 {
		t.Fatalf("supersteps = %d", res.Supersteps)
	}
	if res.Ticks != 7 {
		t.Fatalf("ticks = %d, want 7 (one re-execution)", res.Ticks)
	}
	// The failed attempt's increment was rolled back with the restore,
	// so the final counter equals the committed supersteps.
	if job.counter != 6 {
		t.Fatalf("counter = %d", job.counter)
	}
	if job.comps != 0 {
		t.Fatal("rollback must not invoke compensation")
	}
	if !strings.Contains(res.Samples[4].Recovery, "rolled back") {
		t.Fatalf("recovery note = %q", res.Samples[4].Recovery)
	}
	if res.Overhead.Checkpoints == 0 {
		t.Fatal("overhead not reported")
	}
}

func TestRestartFailureRewindsToZero(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 4)
	l.Policy = recovery.Restart{}
	l.Injector = failure.NewScripted(nil).At(2, 0)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 3 attempts wasted (supersteps 0..2), then 4 committed.
	if res.Ticks != 7 || res.Supersteps != 4 {
		t.Fatalf("res = %+v", res)
	}
	if job.resets != 1 {
		t.Fatalf("resets = %d", job.resets)
	}
}

func TestNonePolicyFailureAborts(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Injector = failure.NewScripted(nil).At(1, 0)
	_, err := l.Run()
	if !errors.Is(err, recovery.ErrUnrecoverable) {
		t.Fatalf("err = %v", err)
	}
}

func TestOnSampleObservesEveryAttempt(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 3)
	var seen []int
	l.OnSample = func(s Sample) { seen = append(seen, s.Tick) }
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[2] != 2 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestExtraSeries(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 3)
	l.Step = func(ctx *Context) (StepStats, error) {
		job.counter++
		return StepStats{Extra: map[string]float64{"l1": float64(10 - ctx.Tick)}}, nil
	}
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ExtraSeries("l1"); got[0] != 10 || got[2] != 8 {
		t.Fatalf("extra series = %v", got)
	}
}

func TestBulkDone(t *testing.T) {
	done := BulkDone(5, nil)
	if done(4) || !done(5) || !done(6) {
		t.Fatal("max-iteration logic wrong")
	}
	converged := false
	done = BulkDone(100, func(int) bool { return converged })
	if done(1) {
		t.Fatal("not converged yet")
	}
	converged = true
	if !done(1) {
		t.Fatal("convergence ignored")
	}
	// Convergence is never consulted before the first superstep.
	if done(0) {
		t.Fatal("converged before running anything")
	}
}

func TestDeltaDone(t *testing.T) {
	n := 3
	done := DeltaDone(func() int { return n })
	if done(0) {
		t.Fatal("non-empty workset terminated")
	}
	n = 0
	if !done(5) {
		t.Fatal("empty workset not terminated")
	}
}

func TestZeroStepLoopTerminatesImmediately(t *testing.T) {
	job := &counterJob{}
	res, err := newLoop(job, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 0 || job.counter != 0 {
		t.Fatalf("res = %+v", res)
	}
}

// faultHonoringStep wraps job.step so it aborts like the exec engine:
// when a fault is armed for the attempt, it returns a wrapped
// *exec.WorkerFailure instead of committing.
func faultHonoringStep(job *counterJob) func(*Context) (StepStats, error) {
	return func(ctx *Context) (StepStats, error) {
		if ctx.Fault != nil {
			return StepStats{}, fmt.Errorf("job: superstep: %w", &exec.WorkerFailure{
				Workers:    ctx.Fault.Workers,
				Partitions: ctx.Fault.Partitions,
				Processed:  ctx.Fault.AfterRecords,
			})
		}
		return job.step(ctx)
	}
}

func TestMidStepAbortDiscardsAttempt(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Step = faultHonoringStep(job)
	l.Policy = recovery.Optimistic{}
	l.Injector = failure.NewScripted(nil).AtMidStep(2, 0, 1)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if got := res.AbortedTicks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("aborted ticks = %v", got)
	}
	s := res.Samples[2]
	if !s.Aborted || !s.Failed() {
		t.Fatalf("aborted sample = %+v", s)
	}
	// The partial attempt's stats are discarded.
	if s.Stats.Messages != 0 || s.Stats.Updates != 0 {
		t.Fatalf("aborted sample kept stats: %+v", s.Stats)
	}
	if len(s.FailedWorkers) != 1 || s.FailedWorkers[0] != 1 {
		t.Fatalf("failed workers = %v", s.FailedWorkers)
	}
	if len(s.LostPartitions) == 0 {
		t.Fatal("no lost partitions recorded")
	}
	if job.comps != 1 {
		t.Fatalf("compensations = %d", job.comps)
	}
	// The aborted attempt did not run job.step, so only the committed
	// attempts incremented the counter.
	if job.counter != res.Ticks-1 {
		t.Fatalf("counter = %d, ticks = %d", job.counter, res.Ticks)
	}
	if l.Cluster.IsAlive(1) || len(l.Cluster.Workers()) != 4 {
		t.Fatalf("cluster after abort: workers = %v", l.Cluster.Workers())
	}
}

func TestMidStepAbortUnderCheckpointReexecutes(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 4)
	l.Step = faultHonoringStep(job)
	l.Policy = recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	l.Injector = failure.NewScripted(nil).AtMidStep(2, 0, 0)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Superstep 2 aborted, restored from the snapshot after superstep 1,
	// re-executed: 5 attempts for 4 committed supersteps.
	if res.Supersteps != 4 || res.Ticks != 5 || res.Failures != 1 {
		t.Fatalf("res = %+v", res)
	}
	if job.counter != 4 {
		t.Fatalf("counter = %d", job.counter)
	}
	if job.comps != 0 {
		t.Fatal("rollback must not invoke compensation")
	}
	if !res.Samples[2].Aborted {
		t.Fatalf("sample 2 = %+v", res.Samples[2])
	}
	// The re-execution presents the same superstep on a later tick.
	if res.Samples[3].Superstep != 2 {
		t.Fatalf("retry sample = %+v", res.Samples[3])
	}
}

func TestMidStepAbortUnderRestart(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 3)
	l.Step = faultHonoringStep(job)
	l.Policy = recovery.Restart{}
	l.Injector = failure.NewScripted(nil).AtMidStep(1, 0, 2)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Supersteps 0 and 1 (aborted) wasted, then 3 committed.
	if res.Ticks != 5 || res.Supersteps != 3 || job.resets != 1 {
		t.Fatalf("res = %+v, resets = %d", res, job.resets)
	}
	if !res.Samples[1].Aborted {
		t.Fatalf("sample 1 = %+v", res.Samples[1])
	}
}

func TestMidStepAbortUnderNoneAborts(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Step = faultHonoringStep(job)
	l.Injector = failure.NewScripted(nil).AtMidStep(1, 0, 0)
	_, err := l.Run()
	if !errors.Is(err, recovery.ErrUnrecoverable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMidStepFallbackKillsAtBoundary(t *testing.T) {
	// counterJob.step ignores ctx.Fault — like a loop body that never
	// hands the fault to the engine. The scheduled workers must still
	// die, at the superstep boundary, not be silently dropped.
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Policy = recovery.Optimistic{}
	l.Injector = failure.NewScripted(nil).AtMidStep(2, 1000, 1)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	s := res.Samples[2]
	if s.Aborted {
		t.Fatal("boundary fallback must not mark the sample aborted")
	}
	if !s.Failed() || s.FailedWorkers[0] != 1 {
		t.Fatalf("sample = %+v", s)
	}
	// The attempt committed before the workers died.
	if s.Stats.Messages == 0 {
		t.Fatal("boundary fallback discarded committed stats")
	}
	if l.Cluster.IsAlive(1) {
		t.Fatal("scheduled worker survived")
	}
}

// phantomInjector names the same worker at every attempt, dead or not —
// the failure mode of satellite bugfix 2: reporting an already-dead
// worker must not count as a new failure.
type phantomInjector struct{ worker int }

func (p phantomInjector) FailuresAt(int, int, []int) []int { return []int{p.worker} }

func TestAlreadyDeadWorkerIsNotAFailure(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Policy = recovery.Optimistic{}
	l.Injector = phantomInjector{worker: 1}
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 dies once; every later report names a dead worker and
	// must be ignored — no spurious spare workers, no phantom failures.
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if got := len(l.Cluster.Workers()); got != 4 {
		t.Fatalf("cluster grew to %d workers: %v", got, l.Cluster.Workers())
	}
	if job.comps != 1 {
		t.Fatalf("compensations = %d", job.comps)
	}
}

func TestMultiWorkerFailureAcquiresOneReplacementEach(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 5)
	l.Policy = recovery.Optimistic{}
	l.Injector = failure.NewScripted(map[int][]int{2: {0, 1, 3}})
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	s := res.Samples[2]
	if len(s.FailedWorkers) != 3 || len(s.LostPartitions) != 3 {
		t.Fatalf("sample = %+v", s)
	}
	// One replacement per dead worker: the cluster keeps its size.
	if got := len(l.Cluster.Workers()); got != 4 {
		t.Fatalf("cluster has %d workers after triple failure: %v", got, l.Cluster.Workers())
	}
	acquires := 0
	for _, e := range l.Cluster.Events() {
		if e.Kind == "acquire" {
			acquires++
		}
	}
	if acquires != 3 {
		t.Fatalf("acquires = %d, want 3", acquires)
	}
}

func TestMultiWorkerFailureUnderAllPolicies(t *testing.T) {
	policies := map[string]func() recovery.Policy{
		"optimistic": func() recovery.Policy { return recovery.Optimistic{} },
		"checkpoint": func() recovery.Policy { return recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()) },
		"restart":    func() recovery.Policy { return recovery.Restart{} },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			job := &counterJob{}
			l := newLoop(job, 5)
			l.Policy = mk()
			l.Injector = failure.NewScripted(map[int][]int{1: {0, 2}})
			res, err := l.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Supersteps != 5 || res.Failures != 1 {
				t.Fatalf("res = %+v", res)
			}
			if got := len(l.Cluster.Workers()); got != 4 {
				t.Fatalf("cluster has %d workers: %v", got, l.Cluster.Workers())
			}
		})
	}
	t.Run("none", func(t *testing.T) {
		job := &counterJob{}
		l := newLoop(job, 5)
		l.Injector = failure.NewScripted(map[int][]int{1: {0, 2}})
		if _, err := l.Run(); !errors.Is(err, recovery.ErrUnrecoverable) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestCheckpointFailureAtSuperstepZero(t *testing.T) {
	job := &counterJob{}
	l := newLoop(job, 4)
	l.Policy = recovery.NewCheckpoint(2, checkpoint.NewMemoryStore())
	l.Injector = failure.NewScripted(nil).At(0, 0)
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Setup snapshots the initial state (superstep -1), so a failure at
	// superstep 0 restores it and resumes at superstep 0.
	if res.Supersteps != 4 || res.Ticks != 5 {
		t.Fatalf("res = %+v", res)
	}
	if job.counter != 4 {
		t.Fatalf("counter = %d (attempt not rolled back?)", job.counter)
	}
	if !strings.Contains(res.Samples[0].Recovery, "rewound to superstep 0") {
		t.Fatalf("recovery note = %q", res.Samples[0].Recovery)
	}
}
