package recovery_test

// External test package: these tests drive the real CC / PageRank jobs
// through the sync and async checkpoint policies, which would be an
// import cycle from package recovery itself.

import (
	"bytes"
	"testing"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/checkpoint"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// snapshotBytes serialises a job's full state for byte-level
// comparison.
func snapshotBytes(t *testing.T, job recovery.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := job.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance contract of the async pipeline: restoring from an
// asynchronously committed epoch yields byte-identical state to
// restoring a synchronous snapshot taken at the same barrier — even
// though the async write raced two more supersteps of live mutation.
func TestAsyncRestoreByteIdenticalToSync_CC(t *testing.T) {
	g := gen.Grid(12, 12)
	job := cc.NewColumnar(g, 4)

	syncPol := recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	asyncPol := recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 4)
	if err := syncPol.Setup(job); err != nil {
		t.Fatal(err)
	}
	if err := asyncPol.Setup(job); err != nil {
		t.Fatal(err)
	}

	// Two supersteps, checkpointing at each barrier through both paths.
	for i := 0; i < 2; i++ {
		if _, err := job.Step(nil); err != nil {
			t.Fatal(err)
		}
		if err := syncPol.AfterSuperstep(job, i); err != nil {
			t.Fatal(err)
		}
		if err := asyncPol.AfterSuperstep(job, i); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotBytes(t, job)

	// The async write overlaps further supersteps; the capture must not
	// be polluted by them. Drain afterwards so the last epoch is the
	// restore target (without the fence, rolling back to an older
	// committed epoch would also be legal).
	for i := 2; i < 4; i++ {
		if _, err := job.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := asyncPol.Finish(job); err != nil {
		t.Fatal(err)
	}

	fromSync := cc.NewColumnar(g, 4)
	resumeSync, err := syncPol.OnFailure(fromSync, recovery.Failure{Superstep: 3})
	if err != nil {
		t.Fatal(err)
	}
	fromAsync := cc.NewColumnar(g, 4)
	resumeAsync, err := asyncPol.OnFailure(fromAsync, recovery.Failure{Superstep: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resumeSync != 2 || resumeAsync != 2 {
		t.Fatalf("resume supersteps = %d (sync), %d (async), want 2", resumeSync, resumeAsync)
	}
	syncBytes := snapshotBytes(t, fromSync)
	asyncBytes := snapshotBytes(t, fromAsync)
	if !bytes.Equal(syncBytes, want) {
		t.Fatal("sync restore drifted from the barrier-time state")
	}
	if !bytes.Equal(asyncBytes, want) {
		t.Fatal("async restore is not byte-identical to the sync restore")
	}
}

func TestAsyncRestoreByteIdenticalToSync_PageRank(t *testing.T) {
	g := gen.Twitter(800, 11)
	job := pagerank.NewColumnar(g, 4, 0.85, nil)

	syncPol := recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	// The gzip path must not perturb bytes either.
	asyncPol := recovery.NewAsyncCheckpoint(1, checkpoint.Compressed(checkpoint.NewMemoryStore()), 4)
	if err := syncPol.Setup(job); err != nil {
		t.Fatal(err)
	}
	if err := asyncPol.Setup(job); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := job.Step(nil); err != nil {
			t.Fatal(err)
		}
		if err := syncPol.AfterSuperstep(job, i); err != nil {
			t.Fatal(err)
		}
		if err := asyncPol.AfterSuperstep(job, i); err != nil {
			t.Fatal(err)
		}
	}
	want := partitionBytes(t, job)
	if _, err := job.Step(nil); err != nil {
		t.Fatal(err)
	}
	if err := asyncPol.Finish(job); err != nil {
		t.Fatal(err)
	}

	fromSync := pagerank.NewColumnar(g, 4, 0.85, nil)
	if _, err := syncPol.OnFailure(fromSync, recovery.Failure{Superstep: 3}); err != nil {
		t.Fatal(err)
	}
	fromAsync := pagerank.NewColumnar(g, 4, 0.85, nil)
	if _, err := asyncPol.OnFailure(fromAsync, recovery.Failure{Superstep: 3}); err != nil {
		t.Fatal(err)
	}
	for p, wantP := range want {
		if got := partitionBytes(t, fromSync)[p]; !bytes.Equal(got, wantP) {
			t.Fatalf("sync restore: partition %d drifted from the barrier-time state", p)
		}
		if got := partitionBytes(t, fromAsync)[p]; !bytes.Equal(got, wantP) {
			t.Fatalf("async restore: partition %d is not byte-identical to the sync restore", p)
		}
	}
}

// partitionBytes encodes every partition of an incremental job (rank /
// label state without run-local scalars like the convergence tracker,
// which restores deliberately reset).
func partitionBytes(t *testing.T, job recovery.IncrementalJob) [][]byte {
	t.Helper()
	n := len(job.PartitionVersions())
	out := make([][]byte, n)
	for p := 0; p < n; p++ {
		var buf bytes.Buffer
		if err := job.SnapshotPartition(p, &buf); err != nil {
			t.Fatal(err)
		}
		out[p] = buf.Bytes()
	}
	return out
}

// Incremental async submissions stitch unchanged partitions to older
// epochs; the reassembled restore must still be byte-identical.
func TestAsyncIncrementalRestoreByteIdentical(t *testing.T) {
	g := gen.Grid(10, 10)
	job := cc.NewColumnar(g, 4)
	pol := recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 4)
	pol.Incremental = true
	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := job.Step(nil); err != nil {
			t.Fatal(err)
		}
		if err := pol.AfterSuperstep(job, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := pol.Finish(job); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, job)
	restored := cc.NewColumnar(g, 4)
	if _, err := pol.OnFailure(restored, recovery.Failure{Superstep: 3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, restored), want) {
		t.Fatal("incremental async restore is not byte-identical")
	}
}

// Finish is the normal-termination fence: after it returns, the store
// holds a committed epoch for the final submitted superstep.
func TestAsyncFinishDrainsInFlightEpochs(t *testing.T) {
	g := gen.Grid(8, 8)
	job := cc.NewColumnar(g, 4)
	store := checkpoint.NewMemoryStore()
	pol := recovery.NewAsyncCheckpoint(1, store, 2)
	if err := pol.Setup(job); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := job.Step(nil); err != nil {
			t.Fatal(err)
		}
		if err := pol.AfterSuperstep(job, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := pol.Finish(job); err != nil {
		t.Fatal(err)
	}
	rec, _, ok, err := checkpoint.LoadCommitted(store, job.Name())
	if err != nil || !ok {
		t.Fatalf("no committed epoch after Finish: ok=%v err=%v", ok, err)
	}
	if rec.Superstep != 1 {
		t.Fatalf("final committed superstep = %d, want 1", rec.Superstep)
	}
	o := pol.Overhead()
	if o.Checkpoints != 3 { // Setup + two barriers
		t.Fatalf("commits = %d", o.Checkpoints)
	}
	if o.CommitTime < o.BarrierTime {
		t.Fatalf("commit time %v < barrier time %v", o.CommitTime, o.BarrierTime)
	}
}

// AsyncCheckpoint needs capture support; a plain Snapshotter job is
// rejected up front, not at the first failure.
func TestAsyncRequiresCaptureSupport(t *testing.T) {
	pol := recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), 2)
	if err := pol.Setup(plainJob{}); err == nil {
		t.Fatal("non-capturable job accepted")
	}
}

type plainJob struct{}

func (plainJob) Name() string                   { return "plain" }
func (plainJob) SnapshotTo(*bytes.Buffer) error { return nil }
func (plainJob) RestoreFrom([]byte) error       { return nil }
func (plainJob) ClearPartitions([]int)          {}
func (plainJob) Compensate([]int) error         { return nil }
func (plainJob) ResetToInitial() error          { return nil }
