package recovery

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"optiflow/internal/checkpoint"
)

// deltaJob is a fake DeltaJob: its state is a string, deltas record the
// appended suffix since the last delta snapshot.
type deltaJob struct {
	fakeJob
	pending string // changes since the last delta
}

func (d *deltaJob) append(s string) {
	d.state += s
	d.pending += s
}

func (d *deltaJob) SnapshotDelta(buf *bytes.Buffer) error {
	_, err := buf.WriteString(d.pending)
	d.pending = ""
	return err
}

func (d *deltaJob) RestoreFromChain(base []byte, deltas [][]byte) error {
	d.state = string(base)
	for _, delta := range deltas {
		d.state += string(delta)
	}
	d.pending = ""
	return nil
}

// chainLen returns how many deltas job's committed chain holds.
func chainLen(t *testing.T, store checkpoint.Store, job string) int {
	t.Helper()
	rec, ok, err := checkpoint.LoadCommitRecord(store, job)
	if err != nil || !ok {
		t.Fatalf("no committed chain: %v %v", ok, err)
	}
	return len(rec.Parts) - 1
}

func TestDeltaCheckpointLifecycle(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	pol := NewDeltaCheckpoint(1, store)
	job := &deltaJob{fakeJob: fakeJob{name: "dj", state: "base."}}

	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	if chainLen(t, store, "dj") != 0 || pol.Overhead().Checkpoints != 1 {
		t.Fatalf("after setup: %d deltas, %d checkpoints", chainLen(t, store, "dj"), pol.Overhead().Checkpoints)
	}

	job.append("s0.")
	if err := pol.AfterSuperstep(job, 0); err != nil {
		t.Fatal(err)
	}
	job.append("s1.")
	if err := pol.AfterSuperstep(job, 1); err != nil {
		t.Fatal(err)
	}
	if chainLen(t, store, "dj") != 2 {
		t.Fatalf("deltas = %d", chainLen(t, store, "dj"))
	}

	// Failure at superstep 2: chain replay reproduces base+s0+s1 and
	// resumes at 2.
	job.state = "garbage"
	resume, err := pol.OnFailure(job, Failure{Superstep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resume != 2 || job.state != "base.s0.s1." {
		t.Fatalf("resume=%d state=%q", resume, job.state)
	}

	oh := pol.Overhead()
	if oh.Checkpoints != 3 || oh.BytesWritten == 0 {
		t.Fatalf("overhead = %+v", oh)
	}
	if !strings.Contains(pol.PolicyName(), "delta-checkpoint") {
		t.Fatalf("name = %q", pol.PolicyName())
	}
}

func TestDeltaCheckpointCompacts(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	pol := NewDeltaCheckpoint(1, store)
	pol.CompactEvery = 3
	job := &deltaJob{fakeJob: fakeJob{name: "dj", state: "b"}}
	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		job.append(fmt.Sprintf("|%d", s))
		if err := pol.AfterSuperstep(job, s); err != nil {
			t.Fatal(err)
		}
		if n := chainLen(t, store, "dj"); n > 3 {
			t.Fatalf("chain grew past the bound: %d", n)
		}
	}
	// Recovery from a compacted chain is still exact.
	want := job.state
	job.state = "garbage"
	if _, err := pol.OnFailure(job, Failure{Superstep: 10}); err != nil {
		t.Fatal(err)
	}
	if job.state != want {
		t.Fatalf("restored %q, want %q", job.state, want)
	}
}

// A policy on a fresh DiskStore over the same directory — a restarted
// process — restores the whole committed chain, deltas and superstep
// included, from the files alone.
func TestDeltaCheckpointChainSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewDeltaCheckpoint(1, store)
	job := &deltaJob{fakeJob: fakeJob{name: "dj", state: "base."}}
	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		job.append(fmt.Sprintf("s%d.", s))
		if err := pol.AfterSuperstep(job, s); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := checkpoint.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &deltaJob{fakeJob: fakeJob{name: "dj"}}
	resume, err := NewDeltaCheckpoint(1, reopened).OnFailure(fresh, Failure{Superstep: 2})
	if err != nil || resume != 2 || fresh.state != "base.s0.s1." {
		t.Fatalf("reopened chain: resume=%d state=%q err=%v", resume, fresh.state, err)
	}
}

// A committed chain whose slots are not 0..n — a delta without its
// base — is refused, never replayed onto nothing.
func TestDeltaCheckpointRejectsChainWithoutBase(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	if err := checkpoint.SaveEpochPartition(store, "dj", 1, 0, 1, []byte("d0")); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Commit(store, "dj", checkpoint.CommitRecord{Epoch: 1, Superstep: 0, Parts: map[int]uint64{1: 1}}); err != nil {
		t.Fatal(err)
	}
	job := &deltaJob{fakeJob: fakeJob{name: "dj", state: "live"}}
	if _, err := NewDeltaCheckpoint(1, store).OnFailure(job, Failure{Superstep: 1}); err == nil || job.state != "live" {
		t.Fatalf("chain without a base restored: state %q, err %v", job.state, err)
	}
}

func TestDeltaCheckpointRejectsPlainJobs(t *testing.T) {
	pol := NewDeltaCheckpoint(1, checkpoint.NewMemoryStore())
	if err := pol.Setup(&fakeJob{name: "plain"}); err == nil {
		t.Fatal("plain job accepted")
	}
}

// confinedJob is a fake ConfinedJob recording recoveries.
type confinedJob struct {
	fakeJob
	recovered [][]int
	failNext  bool
}

func (c *confinedJob) RecoverConfined(lost []int) error {
	if c.failNext {
		return fmt.Errorf("replica gone")
	}
	c.recovered = append(c.recovered, lost)
	return nil
}

func TestConfinedPolicy(t *testing.T) {
	var p Confined
	if p.PolicyName() != "confined" {
		t.Fatal("name changed")
	}
	job := &confinedJob{fakeJob: fakeJob{name: "cj"}}
	if err := p.Setup(job); err != nil {
		t.Fatal(err)
	}
	if err := p.AfterSuperstep(job, 0); err != nil {
		t.Fatal(err)
	}
	if len(job.log) != 0 {
		t.Fatal("confined policy must be free during failure-free execution")
	}
	resume, err := p.OnFailure(job, Failure{Superstep: 6, LostPartitions: []int{2}})
	if err != nil || resume != 7 {
		t.Fatalf("resume=%d err=%v", resume, err)
	}
	if len(job.recovered) != 1 || job.recovered[0][0] != 2 {
		t.Fatalf("recovered %v", job.recovered)
	}
	if p.Overhead() != (Overhead{}) {
		t.Fatal("confined policy itself writes nothing")
	}

	// Errors propagate.
	job.failNext = true
	if _, err := p.OnFailure(job, Failure{Superstep: 7}); err == nil {
		t.Fatal("recovery error swallowed")
	}
	// Plain jobs are rejected.
	if _, err := p.OnFailure(&fakeJob{name: "plain"}, Failure{}); err == nil {
		t.Fatal("plain job accepted")
	}
}
