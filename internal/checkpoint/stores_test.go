package checkpoint

import (
	"bytes"
	"fmt"
	"testing"
)

// submit hands one capture to w and waits for its commit.
func submit(t *testing.T, w *AsyncWriter, superstep int, snap PartitionSnapshot, dirty []int) {
	t.Helper()
	if err := w.Submit(superstep, snap, dirty); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
}

// testPartStore checks per-partition checkpoints on a plain Store: an
// epoch that rewrites one partition leaves the others at their first
// epoch's blobs, and another job's epochs stay apart.
func testPartStore(t *testing.T, s Store) {
	t.Helper()
	if _, got, ok, err := LoadCommitted(s, "job"); ok || err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
	w := NewAsyncWriter(s, "job", AsyncOptions{Parallelism: 2})
	submit(t, w, 0, sliceSnap{[]byte("part-0-v0"), []byte("part-1-v0"), []byte("part-2-v0")}, nil)
	// Replace one partition.
	submit(t, w, 4, sliceSnap{nil, []byte("part-1-v4"), nil}, []int{1})
	rec, got, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if len(got) != 3 || rec.Superstep != 4 {
		t.Fatalf("loaded %d partitions at superstep %d", len(got), rec.Superstep)
	}
	if string(got[0]) != "part-0-v0" || string(got[1]) != "part-1-v4" || string(got[2]) != "part-2-v0" {
		t.Fatalf("blobs: %q %q %q", got[0], got[1], got[2])
	}
	// Other jobs are isolated.
	submit(t, NewAsyncWriter(s, "other", AsyncOptions{}), 0, sliceSnap{[]byte("x")}, nil)
	_, got, _, _ = LoadCommitted(s, "job")
	if len(got) != 3 {
		t.Fatal("jobs collided")
	}
	// Five partition blobs and three commit records.
	if s.Saves() != 8 {
		t.Fatalf("saves = %d", s.Saves())
	}
}

func TestMemoryPartStore(t *testing.T) {
	testPartStore(t, NewMemoryStore())
}

func TestDiskPartStore(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testPartStore(t, s)
}

// link is one blob of a delta chain: a one-partition capture whose
// bytes go to whichever slot the submission names.
type link []byte

func (l link) NumPartitions() int { return 1 }

func (l link) SnapshotPartition(_ int, buf *bytes.Buffer) error {
	_, err := buf.Write(l)
	return err
}

// testLogStore checks a delta chain on a plain Store: the base in slot
// 0, the i-th delta in slot i, and a compaction (a full submission)
// that commits a lone base and collects the old links.
func testLogStore(t *testing.T, s Store) {
	t.Helper()
	if _, _, ok, err := LoadCommitted(s, "job"); ok || err != nil {
		t.Fatalf("empty chain: %v %v", ok, err)
	}
	w := NewAsyncWriter(s, "job", AsyncOptions{})
	submit(t, w, -1, link("base-a"), nil)
	for i := 0; i < 3; i++ {
		submit(t, w, i, link(fmt.Sprintf("d%d", i)), []int{i + 1})
	}
	rec, blobs, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok || rec.Superstep != 2 {
		t.Fatalf("chain: %v %v %v", rec.Superstep, ok, err)
	}
	if string(blobs[0]) != "base-a" || len(blobs) != 4 || string(blobs[3]) != "d2" {
		t.Fatalf("chain content: %q", blobs)
	}
	// Compaction replaces the chain.
	old := rec
	submit(t, w, 5, link("base-b"), nil)
	rec, blobs, ok, err = LoadCommitted(s, "job")
	if err != nil || !ok || rec.Superstep != 5 || string(blobs[0]) != "base-b" || len(blobs) != 1 {
		t.Fatalf("after compaction: %q %d %v %v", blobs, rec.Superstep, ok, err)
	}
	for slot, e := range old.Parts {
		if _, _, ok, _ := s.Load(epochPartKey("job", e, slot)); ok {
			t.Fatalf("compaction kept link %d (epoch %d)", slot, e)
		}
	}
	// Five links and five commit records.
	if s.BytesWritten() == 0 || s.Saves() != 10 {
		t.Fatalf("accounting: %d bytes, %d saves", s.BytesWritten(), s.Saves())
	}
}

func TestMemoryLogStore(t *testing.T) {
	testLogStore(t, NewMemoryStore())
}

// TestDiskLogStore also reopens the directory: a fresh DiskStore reads
// the chain, its deltas and its superstep from the files alone.
func TestDiskLogStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	testLogStore(t, s)
	submit(t, NewAsyncWriter(s, "job", AsyncOptions{}), 6, link("d6"), []int{1})
	reopened, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, blobs, ok, err := LoadCommitted(reopened, "job")
	if err != nil || !ok || rec.Superstep != 6 || string(blobs[0]) != "base-b" || string(blobs[1]) != "d6" {
		t.Fatalf("reopened chain: %q %d %v %v", blobs, rec.Superstep, ok, err)
	}
}

func TestMemoryLogStoreCopiesData(t *testing.T) {
	s := NewMemoryStore()
	buf := []byte("mutable")
	submit(t, NewAsyncWriter(s, "job", AsyncOptions{}), 0, link(buf), nil)
	buf[0] = 'X'
	_, blobs, _, _ := LoadCommitted(s, "job")
	if string(blobs[0]) != "mutable" {
		t.Fatal("chain link aliased caller buffer")
	}
}

// Regression for the old prefix derivation
// (prefix[:strings.LastIndex(prefix, "0")]), which broke for job names
// containing digits: a job's keys must stay its own when names carry
// digits and '#'.
func testPartPrefixHostileJobNames(t *testing.T, s Store) {
	t.Helper()
	jobs := []string{"job0", "job01", "pagerank#v2", "pagerank#v20"}
	for i, job := range jobs {
		snap := make(sliceSnap, 12)
		for _, p := range []int{0, 11} { // multi-digit suffixes too
			snap[p] = []byte(fmt.Sprintf("%s/part-%d", job, p))
		}
		submit(t, NewAsyncWriter(s, job, AsyncOptions{}), i, snap, []int{0, 11})
	}
	for _, job := range jobs {
		_, got, _, err := LoadCommitted(s, job)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("job %q: loaded %d partitions, want 2", job, len(got))
		}
		for _, p := range []int{0, 11} {
			if want := fmt.Sprintf("%s/part-%d", job, p); string(got[p]) != want {
				t.Fatalf("job %q partition %d = %q, want %q", job, p, got[p], want)
			}
		}
	}
}

func TestMemoryPartStoreHostileJobNames(t *testing.T) {
	testPartPrefixHostileJobNames(t, NewMemoryStore())
}

func TestDiskPartStoreHostileJobNames(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testPartPrefixHostileJobNames(t, s)
}

func TestPartPrefix(t *testing.T) {
	if got := epochPartKey("job0#v1", 3, 10); got != "job0#v1#epoch-3#part-10" {
		t.Fatalf("epochPartKey = %q", got)
	}
	if got := commitKey("job0#v1"); got != "job0#v1#commit" {
		t.Fatalf("commitKey = %q", got)
	}
}
