package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/recovery"
)

// fakeJob is a minimal recovery.Job: a counter with call accounting.
type fakeJob struct {
	counter    int
	cleared    []int
	comps      int
	compErr    error
	restores   int
	restoreErr error
	resets     int
	resetErr   error
}

func (j *fakeJob) Name() string { return "fake" }

func (j *fakeJob) SnapshotTo(buf *bytes.Buffer) error {
	_, err := fmt.Fprintf(buf, "%d", j.counter)
	return err
}

func (j *fakeJob) RestoreFrom(data []byte) error {
	if j.restoreErr != nil {
		return j.restoreErr
	}
	j.restores++
	_, err := fmt.Sscanf(string(data), "%d", &j.counter)
	return err
}

func (j *fakeJob) ClearPartitions(parts []int) { j.cleared = append(j.cleared, parts...) }

func (j *fakeJob) Compensate([]int) error {
	if j.compErr != nil {
		return j.compErr
	}
	j.comps++
	return nil
}

func (j *fakeJob) ResetToInitial() error {
	if j.resetErr != nil {
		return j.resetErr
	}
	j.counter = 0
	j.resets++
	return nil
}

// kill fails w on cl and returns the recovery.Failure the driver would
// hand to the supervisor.
func kill(cl *cluster.Cluster, superstep, tick int, w int) recovery.Failure {
	lost := cl.Fail(w)
	return recovery.Failure{Superstep: superstep, Tick: tick, Workers: []int{w}, LostPartitions: lost}
}

func hasEvent(cl *cluster.Cluster, kind cluster.EventKind) bool {
	for _, e := range cl.Events() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func TestRecoverReplacesWorkerAndRunsPolicy(t *testing.T) {
	cl := cluster.New(4, 8)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: -1})
	out, err := s.Recover(job, kill(cl, 3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.ResumeAt != 4 || out.Escalations != 0 || out.Degraded || out.EscalatedTo != "" {
		t.Fatalf("out = %+v", out)
	}
	if job.comps != 1 || len(job.cleared) != 2 {
		t.Fatalf("job = %+v", job)
	}
	if len(cl.Workers()) != 4 {
		t.Fatalf("workers = %v", cl.Workers())
	}
	if !strings.Contains(out.Description, "optimistic: compensated") {
		t.Fatalf("description = %q", out.Description)
	}
}

func TestDegradedModeWhenSparesExhausted(t *testing.T) {
	cl := cluster.New(4, 8, cluster.WithSpares(0))
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: 0})
	out, err := s.Recover(job, kill(cl, 2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("out = %+v", out)
	}
	// The cluster runs narrower: three survivors own all eight
	// partitions, none orphaned.
	if len(cl.Workers()) != 3 || len(cl.Orphaned()) != 0 {
		t.Fatalf("workers = %v orphaned = %v", cl.Workers(), cl.Orphaned())
	}
	if !hasEvent(cl, cluster.EventRepartition) || !hasEvent(cl, cluster.EventAcquireDenied) {
		t.Fatalf("events = %+v", cl.Events())
	}
	if !strings.Contains(out.Description, "degraded") {
		t.Fatalf("description = %q", out.Description)
	}
}

func TestSpareExhaustedThenReplenished(t *testing.T) {
	cl := cluster.New(4, 8, cluster.WithSpares(0))
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: 0})
	if out, err := s.Recover(job, kill(cl, 1, 1, 0)); err != nil || !out.Degraded {
		t.Fatalf("out = %+v err = %v", out, err)
	}
	// Spares return (ops racked a machine); the next failure is healed
	// by real replacement, not degradation.
	cl.AddSpares(1)
	out, err := s.Recover(job, kill(cl, 2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Fatalf("out = %+v", out)
	}
	if len(cl.Workers()) != 3 || cl.Spares() != 0 {
		t.Fatalf("workers = %v spares = %d", cl.Workers(), cl.Spares())
	}
}

func TestAcquireRetryWithBackoff(t *testing.T) {
	fails := 2
	hook := func(seq, worker int) (time.Duration, error) {
		if fails > 0 {
			fails--
			return 0, errors.New("provisioner busy")
		}
		return time.Millisecond, nil
	}
	var slept []time.Duration
	cfg := Config{
		Spares:      -1,
		AcquireHook: hook,
		BackoffBase: 4 * time.Millisecond,
		BackoffCap:  6 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	cl := cluster.New(4, 8, cfg.ClusterOptions()...)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, cfg)
	out, err := s.Recover(job, kill(cl, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Retries != 2 || out.Degraded {
		t.Fatalf("out = %+v", out)
	}
	// Backoff: 4ms then min(8ms, cap 6ms).
	if len(slept) != 2 || slept[0] != 4*time.Millisecond || slept[1] != 6*time.Millisecond {
		t.Fatalf("slept = %v", slept)
	}
	if len(cl.Workers()) != 4 {
		t.Fatalf("workers = %v", cl.Workers())
	}
	if !hasEvent(cl, cluster.EventRetry) || !hasEvent(cl, cluster.EventAcquireFailed) {
		t.Fatalf("events = %+v", cl.Events())
	}
	if s.TotalRetries() != 2 {
		t.Fatalf("total retries = %d", s.TotalRetries())
	}
}

func TestAcquireRetriesExhaustedFallsBackToDegraded(t *testing.T) {
	hook := func(int, int) (time.Duration, error) { return 0, errors.New("region outage") }
	cfg := Config{Spares: -1, MaxAcquireRetries: 2, AcquireHook: hook}
	cl := cluster.New(4, 8, cfg.ClusterOptions()...)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, cfg)
	out, err := s.Recover(job, kill(cl, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Retries != 2 || !out.Degraded {
		t.Fatalf("out = %+v", out)
	}
	if len(cl.Orphaned()) != 0 {
		t.Fatalf("orphaned = %v", cl.Orphaned())
	}
}

func TestEscalationOnPolicyError(t *testing.T) {
	// recovery.None always errors; the ladder's first rung above it is
	// compensation.
	cl := cluster.New(4, 8)
	job := &fakeJob{}
	s := New(cl, recovery.None{}, nil, Config{Spares: -1})
	out, err := s.Recover(job, kill(cl, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.EscalatedTo != "compensation" || out.Escalations != 1 || out.ResumeAt != 3 {
		t.Fatalf("out = %+v", out)
	}
	if job.comps != 1 {
		t.Fatalf("comps = %d", job.comps)
	}
	if !hasEvent(cl, cluster.EventEscalate) {
		t.Fatalf("events = %+v", cl.Events())
	}
	if !strings.Contains(out.Description, "none→compensation") {
		t.Fatalf("description = %q", out.Description)
	}
}

func TestEscalationLadderFailedCompensationToRestart(t *testing.T) {
	// Policy errors AND compensation fails: none → compensation (fails)
	// → restart.
	job := &fakeJob{counter: 7, compErr: errors.New("no compensation function")}
	cl := cluster.New(4, 8)
	s := New(cl, recovery.None{}, nil, Config{Spares: -1})
	out, err := s.Recover(job, kill(cl, 6, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.EscalatedTo != "restart" || out.Escalations != 2 || out.ResumeAt != 0 {
		t.Fatalf("out = %+v", out)
	}
	if job.resets != 1 || job.counter != 0 {
		t.Fatalf("job = %+v", job)
	}
}

// TestEscalationLadderPerPolicy pins the rungs above each policy: a
// spent failure budget sends the failure straight up the ladder without
// consulting the policy, and the ladder stops at the first rung that
// recovers.
func TestEscalationLadderPerPolicy(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	cases := []struct {
		policy      recovery.Policy
		escalatedTo string
		resumeAt    int
	}{
		{recovery.None{}, "compensation", 7},
		{recovery.Optimistic{}, "restart", 0},
		{recovery.Confined{}, "restart", 0},
		{recovery.NewCheckpoint(2, store), "restart", 0},
		{recovery.NewAsyncCheckpoint(2, store, 4), "restart", 0},
		{recovery.NewDeltaCheckpoint(2, store), "restart", 0},
		{recovery.Restart{}, "restart", 0},
	}
	for _, tc := range cases {
		t.Run(tc.policy.PolicyName(), func(t *testing.T) {
			job := &fakeJob{counter: 7}
			cl := cluster.New(4, 8)
			s := New(cl, tc.policy, nil, Config{Spares: -1, FailureBudget: 1})
			s.consecutive[6] = 1
			out, err := s.Recover(job, kill(cl, 6, 6, 0))
			if err != nil {
				t.Fatal(err)
			}
			if out.EscalatedTo != tc.escalatedTo || out.Escalations != 1 || out.ResumeAt != tc.resumeAt {
				t.Fatalf("out = %+v, want one escalation to %s resuming at %d", out, tc.escalatedTo, tc.resumeAt)
			}
			if job.restores != 0 {
				t.Fatalf("a rung restored a checkpoint (%d restores)", job.restores)
			}
		})
	}
}

func TestFailureBudgetExhaustionEscalates(t *testing.T) {
	cl := cluster.New(4, 8)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: -1, FailureBudget: 2})
	// Two consecutive discarded attempts of superstep 5 stay within
	// budget: the optimistic policy handles both.
	for i := 0; i < 2; i++ {
		out, err := s.Recover(job, kill(cl, 5, 10+i, i))
		if err != nil {
			t.Fatal(err)
		}
		if out.Escalations != 0 {
			t.Fatalf("attempt %d escalated: %+v", i, out)
		}
	}
	// The third blows the budget. Above optimistic the ladder has only
	// the restart rung.
	out, err := s.Recover(job, kill(cl, 5, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.EscalatedTo != "restart" || out.ResumeAt != 0 {
		t.Fatalf("out = %+v", out)
	}
	if job.resets != 1 {
		t.Fatalf("resets = %d", job.resets)
	}
	// The restart cleared the budget counters: the next failure of the
	// same superstep goes back to the policy.
	out, err = s.Recover(job, kill(cl, 5, 13, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Escalations != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestNoteCommittedResetsBudget(t *testing.T) {
	cl := cluster.New(4, 8)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: -1, FailureBudget: 1})
	if _, err := s.Recover(job, kill(cl, 5, 10, 0)); err != nil {
		t.Fatal(err)
	}
	// Progress: a superstep commits, budget counters reset.
	s.NoteCommitted(6)
	out, err := s.Recover(job, kill(cl, 5, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Escalations != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestDoubleFailureDuringRecovery(t *testing.T) {
	// Worker 2 dies while the compensation for worker 1's failure is in
	// flight: the supervisor folds it into the same recovery.
	inj := failure.NewScripted(nil).AtDuringRecovery(3, 2)
	cl := cluster.New(4, 8)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, inj, Config{Spares: -1})
	out, err := s.Recover(job, kill(cl, 3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.FoldedFailures != 1 {
		t.Fatalf("out = %+v", out)
	}
	if len(out.Workers) != 2 || out.Workers[0] != 1 || out.Workers[1] != 2 {
		t.Fatalf("workers = %v", out.Workers)
	}
	// Both rounds compensated, both workers replaced.
	if job.comps != 2 {
		t.Fatalf("comps = %d", job.comps)
	}
	if len(cl.Workers()) != 4 || len(cl.Orphaned()) != 0 {
		t.Fatalf("workers = %v orphaned = %v", cl.Workers(), cl.Orphaned())
	}
	if !strings.Contains(out.Description, "failure(s) during recovery") {
		t.Fatalf("description = %q", out.Description)
	}
}

// dyingOnce is a job whose first compensation loses worker victim: the
// typed failure a worker-hosted job returns when a worker dies under the
// compensate request.
type dyingOnce struct {
	fakeJob
	victim int
}

func (j *dyingOnce) Compensate(lost []int) error {
	if j.comps == 0 && j.compErr == nil {
		j.compErr = &exec.WorkerFailure{Workers: []int{j.victim}}
		return fmt.Errorf("compensation: %w", j.compErr)
	}
	j.compErr = nil
	return j.fakeJob.Compensate(lost)
}

func TestWorkerDyingUnderThePolicyIsFoldedNotEscalated(t *testing.T) {
	cl := cluster.New(4, 8)
	job := &dyingOnce{victim: 2}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: -1})
	out, err := s.Recover(job, kill(cl, 3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.FoldedFailures != 1 || out.Escalations != 0 || out.ResumeAt != 4 {
		t.Fatalf("out = %+v, want one folded failure, no escalation, resuming at 4", out)
	}
	if len(out.Workers) != 2 || out.Workers[1] != 2 || cl.IsAlive(2) || job.comps != 1 {
		t.Fatalf("workers = %v, worker 2 alive %v, %d compensations succeeded", out.Workers, cl.IsAlive(2), job.comps)
	}
	// A failure naming nobody alive cannot be folded: it is the policy's error.
	job = &dyingOnce{victim: 1}
	if _, err := s.Recover(job, kill(cl, 5, 5, 0)); err == nil {
		t.Fatal("a worker failure naming only dead workers was swallowed")
	}
}

func TestFailureDuringCheckpointRestore(t *testing.T) {
	// A worker dies while a checkpoint restore is running: the fold
	// re-runs the restore after replacing the new dead, so the restored
	// state cannot carry a partition cleared after the restore.
	store := checkpoint.NewMemoryStore()
	job := &fakeJob{counter: 9}
	var buf bytes.Buffer
	if err := job.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(job.Name(), 2, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	pol := recovery.NewCheckpoint(1, store)
	inj := failure.NewScripted(nil).AtDuringRecovery(4, 3)
	cl := cluster.New(4, 8)
	s := New(cl, pol, inj, Config{Spares: -1})
	job.counter = 42 // diverged state the restore rewinds
	out, err := s.Recover(job, kill(cl, 4, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.FoldedFailures != 1 || out.ResumeAt != 3 {
		t.Fatalf("out = %+v", out)
	}
	// Restore ran once per round: original failure + folded failure.
	if job.restores != 2 || job.counter != 9 {
		t.Fatalf("job = %+v", job)
	}
}

// alwaysDuring reports a during-recovery failure on every round.
type alwaysDuring struct{}

func (alwaysDuring) FailuresAt(int, int, []int) []int { return nil }
func (alwaysDuring) FailuresDuringRecovery(_, _, _ int, alive []int) []int {
	if len(alive) == 0 {
		return nil
	}
	return alive[:1]
}

func TestRecoveryRoundsBounded(t *testing.T) {
	cl := cluster.New(4, 8)
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, alwaysDuring{}, Config{Spares: -1, MaxRecoveryRounds: 4})
	_, err := s.Recover(job, kill(cl, 0, 0, 0))
	if err == nil || !strings.Contains(err.Error(), "outrunning recovery") {
		t.Fatalf("err = %v", err)
	}
}

func TestExtinctClusterIsFatal(t *testing.T) {
	cl := cluster.New(2, 4, cluster.WithSpares(0))
	job := &fakeJob{}
	s := New(cl, recovery.Optimistic{}, nil, Config{Spares: 0})
	cl.Fail(0)
	f := kill(cl, 1, 1, 1) // the last worker
	f.Workers = []int{0, 1}
	_, err := s.Recover(job, f)
	if err == nil || !strings.Contains(err.Error(), "no live worker") {
		t.Fatalf("err = %v", err)
	}
}
