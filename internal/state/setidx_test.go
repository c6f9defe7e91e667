package state

import (
	"bytes"
	"slices"
	"testing"

	"optiflow/internal/colbytes"
)

// TestSetIdxWritesOnlyWhenGiven holds DenseStore.SetIdx to its bulk
// contract under a SnapshotShared capture: an empty write keeps the
// partition's version and its arrays shared with the capture; a
// non-empty one unshares once, bumps the version once, and marks each
// slot present and dirty once, whatever the capture reads.
func TestSetIdxWritesOnlyWhenGiven(t *testing.T) {
	s := byteViewStore(t)
	s.MarkClean()
	capture := s.SnapshotShared()
	want := capture.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals)
	ver, arr := s.Version(0), &s.vals[0][0]

	s.SetIdx(0, nil, nil)
	if s.Version(0) != ver || !s.shared[0] || &s.vals[0][0] != arr {
		t.Fatal("an empty SetIdx bumped the version or unshared the partition")
	}

	owned := s.pt.Owned[0]
	var idx []int32
	var vals []uint64
	for slot, d := range owned {
		if slot%2 == 0 {
			idx, vals = append(idx, d), append(vals, uint64(1000+slot))
		}
	}
	count, dirty := s.count[0], 0
	for slot := range owned {
		if slot%2 == 0 && !s.has[0][slot] {
			count++
		}
	}
	s.SetIdx(0, idx, vals)
	if s.Version(0) != ver+1 || s.shared[0] || &s.vals[0][0] == arr {
		t.Fatalf("SetIdx: version %d (was %d), shared %v", s.Version(0), ver, s.shared[0])
	}
	for slot := range owned {
		set := slot%2 == 0
		if set && (!s.has[0][slot] || s.vals[0][slot] != uint64(1000+slot)) {
			t.Fatalf("slot %d not written", slot)
		}
		if s.dirty[0][slot] != set {
			t.Fatalf("slot %d dirty %v, want %v", slot, s.dirty[0][slot], set)
		}
		if set {
			dirty++
		}
	}
	if s.count[0] != count || s.dirtyCount[0] != dirty {
		t.Fatalf("count %d, dirty count %d; want %d, %d", s.count[0], s.dirtyCount[0], count, dirty)
	}
	// Writing the same slots again marks nothing twice.
	s.SetIdx(0, idx, vals)
	if s.count[0] != count || s.dirtyCount[0] != dirty {
		t.Fatalf("a second write: count %d, dirty count %d; want %d, %d", s.count[0], s.dirtyCount[0], count, dirty)
	}
	if got := capture.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals); !bytes.Equal(got, want) {
		t.Fatal("the capture changed under SetIdx")
	}
}

// TestColWorksetGrowCommit holds Grow and Commit to append semantics on
// a partition a SnapshotShared capture aliases: Grow changes nothing
// visible, Commit keeps a prefix and bumps the version once, and a
// commit of nothing keeps the version.
func TestColWorksetGrowCommit(t *testing.T) {
	w := NewColWorkset[uint64]("workset", 3)
	fillColWorkset(w, 1)
	capture := w.SnapshotShared()
	want := colWorksetBytes(t, capture)
	idx0, val0 := w.Cols(1)
	idx0, val0 = slices.Clone(idx0), slices.Clone(val0)
	ver := w.Version(1)

	idx, val := w.Grow(1, 3)
	if len(idx) != 3 || len(val) != 3 || w.PartitionLen(1) != len(idx0) {
		t.Fatalf("Grow: %d/%d entries, partition length %d", len(idx), len(val), w.PartitionLen(1))
	}
	copy(idx, []int32{17, 18, 19})
	copy(val, []uint64{7, 8, 9})
	w.Commit(1, 0)
	if w.Version(1) != ver || w.PartitionLen(1) != len(idx0) {
		t.Fatal("a commit of nothing changed the partition")
	}
	idx, val = w.Grow(1, 3)
	copy(idx, []int32{17, 18, 19})
	copy(val, []uint64{7, 8, 9})
	w.Commit(1, 2)
	gotIdx, gotVal := w.Cols(1)
	if !slices.Equal(gotIdx, append(idx0, 17, 18)) || !slices.Equal(gotVal, append(val0, 7, 8)) {
		t.Fatalf("Commit: columns %v %v", gotIdx, gotVal)
	}
	if w.Version(1) != ver+1 {
		t.Fatalf("Commit bumped the version by %d, want 1", w.Version(1)-ver)
	}
	if got := colWorksetBytes(t, capture); !bytes.Equal(got, want) {
		t.Fatal("the capture changed under Grow and Commit")
	}
}
