package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// Regression: two jobs sharing one checkpoint store used to be able to
// reclaim each other's in-flight blobs through two unscoped paths.
//
// Path 1 — the DiskStore `.tmp-` sweep. NewDiskStore swept *every*
// temp file in the directory, so job B (re)opening a shared directory
// while job A sat between CreateTemp and Rename deleted A's in-flight
// temp and failed A's Save. The sweep is now an explicit per-job
// SweepTemp, invoked by the owning AsyncWriter for its own key prefix
// only.
func TestConcurrentJobsSharedDirTempSweepScoped(t *testing.T) {
	dir := t.TempDir()
	storeA, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Job A mid-Save: its epoch blob temp exists but the rename has not
	// happened yet (exactly what a concurrent Save looks like from
	// another process's point of view). Plus a crash leftover of A's own
	// from an earlier incarnation.
	inflight := filepath.Join(dir, "jobA#epoch-3#part-0.tmp-1234")
	if err := os.WriteFile(inflight, []byte("half written"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Job B spins up its own pipeline on the same directory — store
	// open + async writer construction (which sweeps B's own scope).
	storeB, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	leftoverB := filepath.Join(dir, "jobB#epoch-1#part-0.tmp-9")
	if err := os.WriteFile(leftoverB, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	wb := NewAsyncWriter(storeB, "jobB", AsyncOptions{})
	if err := wb.Submit(0, sliceSnap{[]byte("b0")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}

	// B's own leftover is swept, A's in-flight temp survives.
	if _, err := os.Stat(leftoverB); !os.IsNotExist(err) {
		t.Fatal("jobB's stale temp not swept by its own writer")
	}
	if _, err := os.Stat(inflight); err != nil {
		t.Fatal("jobB's pipeline reclaimed jobA's in-flight temp")
	}

	// A's "in-flight" write completes fine and both jobs commit.
	wa := NewAsyncWriter(storeA, "jobA", AsyncOptions{})
	if err := wa.Submit(0, sliceSnap{[]byte("a0")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := wa.Drain(); err != nil {
		t.Fatal(err)
	}
	for job, want := range map[string]string{"jobA": "a0", "jobB": "b0"} {
		_, blobs, ok, err := LoadCommitted(storeA, job)
		if err != nil || !ok {
			t.Fatalf("LoadCommitted(%s): ok=%v err=%v", job, ok, err)
		}
		if string(blobs[0]) != want {
			t.Fatalf("%s partition 0 = %q, want %q", job, blobs[0], want)
		}
	}
}

// Path 2 — the superseded-blob GC and failed-write discard. A fresh
// AsyncWriter used to restart epoch numbering at 1 even when the store
// already held a committed epoch of the job (a previous incarnation —
// e.g. the policy re-Setup after a coordinator restart). Its first
// failed write would then DiscardEpochParts(epoch 1, …), deleting blobs
// the committed record still references, and the next restore would
// hard-fail on a missing blob. The writer now resumes numbering and the
// incremental baseline from the store's commit record.
func TestWriterIncarnationsDoNotReclaimCommittedBlobs(t *testing.T) {
	s := NewMemoryStore()

	// Incarnation 1: incremental commits. Epoch 1 = full {p0, p1},
	// epoch 2 = dirty p1 only, so the commit record keeps p0 pinned at
	// epoch 1.
	w1 := NewAsyncWriter(s, "job", AsyncOptions{})
	if err := w1.Submit(0, sliceSnap{[]byte("p0v1"), []byte("p1v1")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w1.Submit(1, sliceSnap{[]byte("p0v1"), []byte("p1v2")}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := w1.Drain(); err != nil {
		t.Fatal(err)
	}
	rec, _ := w1.LastCommitted()
	if rec.Parts[0] != 1 || rec.Parts[1] != 2 {
		t.Fatalf("baseline commit parts = %v", rec.Parts)
	}

	// Incarnation 2 on the same store and job: its first write fails
	// (snapshot error on partition 1 after partition 0 encoded). The
	// failed write's discard must only touch the *new* epoch's keys.
	w2 := NewAsyncWriter(s, "job", AsyncOptions{})
	if err := w2.Submit(2, sliceSnap{[]byte("p0v2"), nil}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w2.Drain(); err == nil {
		t.Fatal("failing snapshot committed")
	}

	// The committed epoch of incarnation 1 must still restore intact.
	rec2, blobs, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok {
		t.Fatalf("LoadCommitted after failed incarnation-2 write: ok=%v err=%v", ok, err)
	}
	if rec2.Epoch != rec.Epoch {
		t.Fatalf("committed epoch moved: %d -> %d", rec.Epoch, rec2.Epoch)
	}
	if string(blobs[0]) != "p0v1" || string(blobs[1]) != "p1v2" {
		t.Fatalf("restored blobs = %q, %q", blobs[0], blobs[1])
	}

	// A healthy incarnation continues the numbering past the committed
	// epoch and builds incrementally on the committed baseline.
	w3 := NewAsyncWriter(s, "job", AsyncOptions{})
	if last, ok := w3.LastCommitted(); !ok || last.Epoch != rec.Epoch {
		t.Fatalf("resumed baseline = %+v ok=%v", last, ok)
	}
	if err := w3.Submit(2, sliceSnap{[]byte("p0v3"), []byte("p1v2")}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := w3.Drain(); err != nil {
		t.Fatal(err)
	}
	rec3, blobs3, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if rec3.Epoch <= rec.Epoch {
		t.Fatalf("incarnation 3 epoch %d did not advance past committed %d", rec3.Epoch, rec.Epoch)
	}
	if rec3.Parts[1] != 2 {
		t.Fatalf("incremental baseline lost: p1 pinned at epoch %d, want 2", rec3.Parts[1])
	}
	if string(blobs3[0]) != "p0v3" || string(blobs3[1]) != "p1v2" {
		t.Fatalf("restored blobs = %q, %q", blobs3[0], blobs3[1])
	}
}

// A Compressed disk store sweeps its job's crash-abandoned temps too:
// the decorator forwards TempSweeper to the store it wraps, and the
// sweep stays scoped to the job.
func TestCompressedDiskStoreSweepsTemp(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, "job#epoch-1#part-0.tmp-7")
	other := filepath.Join(dir, "other#epoch-1#part-0.tmp-7")
	for _, name := range []string{leftover, other} {
		if err := os.WriteFile(name, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	NewAsyncWriter(Compressed(disk), "job", AsyncOptions{})
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("compressed disk store did not sweep the job's stale temp")
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("the sweep reached another job's temp")
	}
}
