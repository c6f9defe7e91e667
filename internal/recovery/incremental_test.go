package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"optiflow/internal/checkpoint"
)

// incrJob is a fake incremental job: each partition holds one string
// and a version counter.
type incrJob struct {
	fakeJob
	parts    []string
	versions []uint64
}

func newIncrJob(n int) *incrJob {
	j := &incrJob{fakeJob: fakeJob{name: "incr"}, parts: make([]string, n), versions: make([]uint64, n)}
	for p := range j.parts {
		j.parts[p] = fmt.Sprintf("p%d-v0", p)
		j.versions[p] = 1
	}
	return j
}

func (j *incrJob) set(p int, v string) {
	j.parts[p] = v
	j.versions[p]++
}

func (j *incrJob) PartitionVersions() []uint64 { return append([]uint64(nil), j.versions...) }

func (j *incrJob) SnapshotPartition(p int, buf *bytes.Buffer) error {
	_, err := buf.WriteString(j.parts[p])
	return err
}

func (j *incrJob) RestorePartition(p int, data []byte) error {
	j.parts[p] = string(data)
	j.versions[p]++
	return nil
}

func (j *incrJob) CaptureSnapshot() checkpoint.PartitionSnapshot {
	return partsSnap(slices.Clone(j.parts))
}

// partsSnap is an incrJob capture: the partitions' strings at the
// barrier.
type partsSnap []string

func (s partsSnap) NumPartitions() int { return len(s) }

func (s partsSnap) SnapshotPartition(p int, buf *bytes.Buffer) error {
	_, err := buf.WriteString(s[p])
	return err
}

// newIncremental returns the per-partition incremental checkpoint: the
// async epoch pipeline writing only changed partitions.
func newIncremental(store checkpoint.Store) *AsyncCheckpoint {
	pol := NewAsyncCheckpoint(1, store, 1)
	pol.Incremental = true
	return pol
}

// blobSaves awaits pol's writes and returns how many partition blobs
// store took: its saves less one commit record per checkpoint.
func blobSaves(t *testing.T, pol *AsyncCheckpoint, job Job, store checkpoint.Store) int {
	t.Helper()
	if err := pol.Finish(job); err != nil {
		t.Fatal(err)
	}
	return store.Saves() - pol.Overhead().Checkpoints
}

func TestIncrementalCheckpointSavesOnlyChangedPartitions(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	pol := newIncremental(store)
	job := newIncrJob(4)

	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	if n := blobSaves(t, pol, job, store); n != 4 {
		t.Fatalf("setup saved %d partitions, want all 4", n)
	}

	// Only partition 2 changes: the next checkpoint writes one blob.
	job.set(2, "p2-v1")
	if err := pol.AfterSuperstep(job, 0); err != nil {
		t.Fatal(err)
	}
	if n := blobSaves(t, pol, job, store); n != 5 {
		t.Fatalf("saves = %d, want 5 (one incremental)", n)
	}

	// Nothing changes: the checkpoint writes nothing.
	if err := pol.AfterSuperstep(job, 1); err != nil {
		t.Fatal(err)
	}
	if n := blobSaves(t, pol, job, store); n != 5 {
		t.Fatalf("saves = %d after no-op checkpoint", n)
	}
}

func TestIncrementalCheckpointRestoreAssemblesConsistentState(t *testing.T) {
	store := checkpoint.NewMemoryStore()
	pol := newIncremental(store)
	job := newIncrJob(3)
	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}

	job.set(0, "p0-s0")
	if err := pol.AfterSuperstep(job, 0); err != nil {
		t.Fatal(err)
	}
	job.set(1, "p1-s1")
	if err := pol.AfterSuperstep(job, 1); err != nil {
		t.Fatal(err)
	}
	// Await the epochs: OnFailure drops queued ones, which would roll
	// back further than the last checkpoint.
	if err := pol.Finish(job); err != nil {
		t.Fatal(err)
	}

	// Corrupt everything, then recover: partition 0's blob is from
	// superstep 0, partition 1's from superstep 1, partition 2's from
	// setup — and since they did not change in between, the assembly is
	// the state at the last checkpoint.
	job.set(0, "garbage")
	job.set(1, "garbage")
	job.set(2, "garbage")
	resume, err := pol.OnFailure(job, Failure{Superstep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resume != 2 {
		t.Fatalf("resume = %d, want 2", resume)
	}
	want := []string{"p0-s0", "p1-s1", "p2-v0"}
	for p, w := range want {
		if job.parts[p] != w {
			t.Fatalf("partition %d = %q, want %q", p, job.parts[p], w)
		}
	}

	// A post-restore checkpoint writes nothing: the state equals the
	// stored blobs.
	if saves := blobSaves(t, pol, job, store); saves != 5 {
		t.Fatalf("saves before = %d", saves)
	}
	if err := pol.AfterSuperstep(job, 2); err != nil {
		t.Fatal(err)
	}
	if n := blobSaves(t, pol, job, store); n != 5 {
		t.Fatalf("post-restore checkpoint rewrote partitions: %d saves", n)
	}
}

func TestIncrementalCheckpointRejectsPlainJobs(t *testing.T) {
	pol := newIncremental(checkpoint.NewMemoryStore())
	if err := pol.Setup(&fakeJob{name: "plain"}); err == nil {
		t.Fatal("plain job accepted")
	}
}

func TestIncrementalCheckpointDiskStore(t *testing.T) {
	store, err := checkpoint.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pol := newIncremental(store)
	job := newIncrJob(2)
	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	job.set(1, "disk-v1")
	if err := pol.AfterSuperstep(job, 0); err != nil {
		t.Fatal(err)
	}
	if err := pol.Finish(job); err != nil {
		t.Fatal(err)
	}
	job.set(0, "garbage")
	job.set(1, "garbage")
	if _, err := pol.OnFailure(job, Failure{Superstep: 1}); err != nil {
		t.Fatal(err)
	}
	if job.parts[0] != "p0-v0" || job.parts[1] != "disk-v1" {
		t.Fatalf("restored parts = %v", job.parts)
	}
}

// failingStore is a MemoryStore whose k-th Save after arm fails.
type failingStore struct {
	*checkpoint.MemoryStore
	mu        sync.Mutex
	countdown int // saves until the failing one; 0 when disarmed
}

func (s *failingStore) arm(k int) {
	s.mu.Lock()
	s.countdown = k
	s.mu.Unlock()
}

func (s *failingStore) Save(job string, superstep int, data []byte) error {
	s.mu.Lock()
	n := s.countdown
	if n > 0 {
		s.countdown--
	}
	s.mu.Unlock()
	if n == 1 {
		return errors.New("injected save failure")
	}
	return s.MemoryStore.Save(job, superstep, data)
}

// failCase is one checkpoint policy on a fake job for
// TestFailedSaveRestoresPreviousCheckpoint.
type failCase struct {
	job    Job
	pol    Policy
	mutate func(superstep int) // the superstep's change to the state
	state  func() string
}

// TestFailedSaveRestoresPreviousCheckpoint fails each Save of one
// checkpoint write in turn — a delta append, a chain compaction, an
// incremental epoch — and checks that OnFailure then restores the
// checkpoint before it, at its superstep. Every link of a write is
// saved before its commit record, so no failing save can leave a
// committed record naming a blob that is not there.
func TestFailedSaveRestoresPreviousCheckpoint(t *testing.T) {
	deltaCase := func(store checkpoint.Store, compactEvery int) failCase {
		pol := NewDeltaCheckpoint(1, store)
		pol.CompactEvery = compactEvery
		job := &deltaJob{fakeJob: fakeJob{name: "dj", state: "base."}}
		return failCase{job, pol, func(s int) { job.append(fmt.Sprintf("s%d.", s)) }, func() string { return job.state }}
	}
	for _, tc := range []struct {
		name   string
		failAt int // the superstep whose checkpoint write fails
		saves  int // Saves of that write: its links, then the commit record
		mk     func(store checkpoint.Store) failCase
	}{
		{"delta append", 1, 2, func(s checkpoint.Store) failCase { return deltaCase(s, 16) }},
		// Setup's base, deltas after supersteps 0 and 1, then a
		// compaction after superstep 2.
		{"compaction", 2, 2, func(s checkpoint.Store) failCase { return deltaCase(s, 2) }},
		{"incremental epoch", 1, 3, func(s checkpoint.Store) failCase {
			job := newIncrJob(3)
			return failCase{job, newIncremental(s), func(s int) {
				job.set(1, fmt.Sprintf("p1-s%d", s))
				job.set(2, fmt.Sprintf("p2-s%d", s))
			}, func() string { return fmt.Sprint(job.parts) }}
		}},
	} {
		for k := 1; k <= tc.saves; k++ {
			store := &failingStore{MemoryStore: checkpoint.NewMemoryStore()}
			c := tc.mk(store)
			if err := c.pol.Setup(c.job); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < tc.failAt; s++ {
				c.mutate(s)
				if err := c.pol.AfterSuperstep(c.job, s); err != nil {
					t.Fatal(err)
				}
			}
			if fin, ok := c.pol.(Finisher); ok {
				if err := fin.Finish(c.job); err != nil {
					t.Fatal(err)
				}
			}
			want := c.state()
			c.mutate(tc.failAt)
			store.arm(k)
			err := c.pol.AfterSuperstep(c.job, tc.failAt)
			if fin, ok := c.pol.(Finisher); ok && err == nil {
				err = fin.Finish(c.job)
			}
			if err == nil {
				t.Fatalf("%s: failed save %d of %d not reported", tc.name, k, tc.saves)
			}
			c.mutate(tc.failAt + 1)
			resume, err := c.pol.OnFailure(c.job, Failure{Superstep: tc.failAt + 1})
			if err != nil || resume != tc.failAt || c.state() != want {
				t.Errorf("%s, save %d of %d failed: resume %d, state %q, %v; want %d, %q",
					tc.name, k, tc.saves, resume, c.state(), err, tc.failAt, want)
			}
		}
	}
}
