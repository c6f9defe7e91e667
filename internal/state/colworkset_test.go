package state

import (
	"bytes"
	"reflect"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// ColWorkset clears truncate its columns so the next superstep refills
// the same arrays; a SnapshotShared capture marks the partitions it
// aliases shared, and the next clear of a shared partition drops its
// arrays instead. These tests hold both halves of that contract.

func fillColWorkset(w *ColWorkset[uint64], base uint64) {
	for p := 0; p < w.NumPartitions(); p++ {
		for i := 0; i < 5+p; i++ {
			w.Add(p, int32(10*p+i), base+uint64(100*p+i))
		}
	}
}

// colWorksetParts is a partitioning that owns the indices
// fillColWorkset writes: partition p holds 10p..10p+9.
func colWorksetParts(nparts int) *graph.Partitioning {
	pt := &graph.Partitioning{N: nparts, PartOf: make([]int32, 10*nparts)}
	for i := range pt.PartOf {
		pt.PartOf[i] = int32(i / 10)
	}
	return pt
}

// colWorksetBytes is every partition's byte view, in order.
func colWorksetBytes(t *testing.T, w *ColWorkset[uint64]) []byte {
	t.Helper()
	var b []byte
	for p := 0; p < w.NumPartitions(); p++ {
		b = w.AppendPartitionBytes(b, p, colbytes.AppendU64Vals)
	}
	return b
}

func firstIdx(w *ColWorkset[uint64], p int) *int32 {
	idx, _ := w.Cols(p)
	return &idx[:1][0]
}

// TestColWorksetSnapshotSharedSurvivesReuse clears, refills, swaps and
// clears the live workset after a capture, as supersteps do while an
// async checkpoint encodes it, and checks the capture never changes.
func TestColWorksetSnapshotSharedSurvivesReuse(t *testing.T) {
	w := NewColWorkset[uint64]("workset", 3)
	next := NewColWorkset[uint64]("next-workset", 3)
	fillColWorkset(w, 1)
	fillColWorkset(next, 2)
	snap := w.SnapshotShared()
	want, wantBytes := w.Snapshot(), colWorksetBytes(t, w)

	// Swap first: the captured arrays now live in next, whose clear
	// must see the shared flags that moved with them.
	w.Swap(next)
	next.ClearAll()
	fillColWorkset(next, 8)
	w.ClearAll()
	fillColWorkset(w, 3)
	w.Swap(next)
	next.ClearAll()
	fillColWorkset(next, 4)
	w.ClearAll()
	fillColWorkset(w, 5)
	next.Swap(w)
	w.ClearAll()
	next.ClearAll()
	fillColWorkset(w, 6)
	fillColWorkset(next, 7)

	for p := 0; p < 3; p++ {
		gi, gv := snap.Cols(p)
		wi, wv := want.Cols(p)
		if !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("partition %d: capture changed to %v/%v, want %v/%v", p, gi, gv, wi, wv)
		}
	}
	if got := colWorksetBytes(t, snap); !bytes.Equal(got, wantBytes) {
		t.Fatal("capture encodes differently from the barrier state")
	}
}

// TestColWorksetUnsharedClearReusesArrays checks an unshared partition
// refills its own array after a clear, and a captured one does not.
func TestColWorksetUnsharedClearReusesArrays(t *testing.T) {
	w := NewColWorkset[uint64]("workset", 2)
	fillColWorkset(w, 1)
	before := firstIdx(w, 0)
	w.ClearPartition(0)
	if w.PartitionLen(0) != 0 {
		t.Fatalf("cleared partition holds %d updates", w.PartitionLen(0))
	}
	w.Add(0, 42, 42)
	if firstIdx(w, 0) != before {
		t.Fatal("unshared partition regrew its array after a clear")
	}

	snap := w.SnapshotShared()
	captured := firstIdx(w, 0)
	w.ClearPartition(0)
	w.Add(0, 7, 7)
	if firstIdx(w, 0) == captured {
		t.Fatal("shared partition reused an array a capture aliases")
	}
	if idx, _ := snap.Cols(0); len(idx) != 1 || idx[0] != 42 {
		t.Fatalf("capture changed to %v", idx)
	}
	// Dropping the arrays unshares the partition: the next clear reuses.
	again := firstIdx(w, 0)
	w.ClearPartition(0)
	w.Add(0, 8, 8)
	if firstIdx(w, 0) != again {
		t.Fatal("partition stayed shared after its aliased arrays were dropped")
	}
}

// TestColWorksetReplacementUnshares checks the byte-view restore (of
// every partition, and of one) installs fresh arrays and leaves no stale
// shared flag, so the next clear reuses them and the old capture is
// untouched.
func TestColWorksetReplacementUnshares(t *testing.T) {
	src := NewColWorkset[uint64]("workset", 2)
	fillColWorkset(src, 9)
	pt := colWorksetParts(2)
	restore := func(w *ColWorkset[uint64], parts ...int) error {
		for _, p := range parts {
			view := src.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
			if err := w.RestorePartitionBytes(p, colbytes.NewReader(view), (*colbytes.Reader).U64Vals, pt); err != nil {
				return err
			}
		}
		return nil
	}

	replace := map[string]func(w *ColWorkset[uint64]) error{
		"RestoreEveryPartition": func(w *ColWorkset[uint64]) error { return restore(w, 0, 1) },
		"RestoreOnePartition":   func(w *ColWorkset[uint64]) error { return restore(w, 1) },
	}
	for name, fn := range replace {
		t.Run(name, func(t *testing.T) {
			w := NewColWorkset[uint64]("workset", 2)
			fillColWorkset(w, 1)
			snap := w.SnapshotShared()
			want := snap.Snapshot()
			if err := fn(w); err != nil {
				t.Fatal(err)
			}
			if name == "RestoreOnePartition" && !w.shared[0] {
				t.Fatal("a partition restore unshared a partition it did not replace")
			}
			if w.shared[1] {
				t.Fatal("replaced partition still marked shared")
			}
			if gi, gv := w.Cols(1); !reflect.DeepEqual(gi, src.idx[1]) || !reflect.DeepEqual(gv, src.val[1]) {
				t.Fatalf("replaced partition holds %v/%v", gi, gv)
			}
			before := firstIdx(w, 1)
			w.ClearPartition(1)
			w.Add(1, 3, 3)
			if firstIdx(w, 1) != before {
				t.Fatal("replaced partition regrew its array after a clear")
			}
			for p := 0; p < 2; p++ {
				gi, gv := snap.Cols(p)
				wi, wv := want.Cols(p)
				if !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gv, wv) {
					t.Fatalf("partition %d: capture changed", p)
				}
			}
		})
	}
}
