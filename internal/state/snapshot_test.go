package state

import (
	"bytes"
	"slices"
	"testing"

	"optiflow/internal/colbytes"
)

// The async checkpoint pipeline captures state with SnapshotShared at
// the superstep barrier and encodes it on background goroutines while
// the live store keeps mutating, and a hosted step holds its attempt
// with a Recapture. The copy-on-write contract: the capture is
// immutable, and the live side pays for a partition clone only on its
// first post-capture write to that partition.

// TestSnapshotSharedIsImmutable runs every in-place writer of
// DenseStore under each kind of capture — a SnapshotShared one, and a
// Recapture whose partition has a recycled spare array to copy into —
// and checks that the capture still encodes the barrier state while the
// live store holds what the writer gives an uncaptured copy.
func TestSnapshotSharedIsImmutable(t *testing.T) {
	delta := func(cleared bool) []byte {
		src := byteViewStore(t)
		src.MarkClean()
		if cleared {
			src.ClearPartition(0)
		}
		src.SetSlot(0, 1, 555)
		return src.AppendDeltaBytes(nil, 0, colbytes.AppendU64Vals)
	}
	restoreDelta := func(view []byte) func(*DenseStore[uint64]) {
		return func(s *DenseStore[uint64]) {
			if err := s.RestoreDeltaBytes(0, colbytes.NewReader(view), (*colbytes.Reader).U64Vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	writers := []struct {
		name  string
		write func(s *DenseStore[uint64])
	}{
		{"SetSlot", func(s *DenseStore[uint64]) { s.SetSlot(0, 1, 555) }},
		{"SetAt", func(s *DenseStore[uint64]) { s.SetAt(s.pt.Owned[0][1], 555) }},
		{"Put", func(s *DenseStore[uint64]) { s.Put(uint64(s.d.IDs()[s.pt.Owned[0][1]]), 555) }},
		{"SetIdx", func(s *DenseStore[uint64]) { s.SetIdx(0, s.pt.Owned[0][:2], []uint64{555, 556}) }},
		{"WriteAll", func(s *DenseStore[uint64]) {
			col := s.WriteAll(0)
			for i := range col {
				col[i] += 1000
			}
		}},
		{"RestoreDeltaBytes", restoreDelta(delta(false))},
		{"RestoreDeltaBytesCleared", restoreDelta(delta(true))},
	}
	captures := []struct {
		name string
		take func(s *DenseStore[uint64]) *DenseStore[uint64]
	}{
		{"SnapshotShared", (*DenseStore[uint64]).SnapshotShared},
		{"Recapture", func(s *DenseStore[uint64]) *DenseStore[uint64] {
			c := s.Recapture(nil)
			s.SetSlot(0, 0, 1) // the next Recapture recycles what c held
			return s.Recapture(c)
		}},
	}
	view := func(s *DenseStore[uint64]) []byte { return s.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals) }
	for _, w := range writers {
		for _, c := range captures {
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				s := byteViewStore(t)
				capture := c.take(s)
				twin := s.Snapshot()
				before := view(capture)
				w.write(s)
				w.write(twin)
				if !bytes.Equal(view(capture), before) {
					t.Fatal("the capture changed under the write")
				}
				if got := view(s); bytes.Equal(got, before) || !bytes.Equal(got, view(twin)) {
					t.Fatal("the live store does not hold the write")
				}
			})
		}
	}
}

func TestSnapshotSharedChainsAndReverseProtection(t *testing.T) {
	s := byteViewStore(t)
	// Two captures of the same state alias the same columns; writing
	// through either capture must not corrupt the other or the live
	// store.
	a := s.SnapshotShared()
	b := s.SnapshotShared()
	a.Put(3, 100)
	if v, _ := b.Get(3); v != 30 {
		t.Fatalf("write through capture a leaked into b: %d", v)
	}
	if v, _ := s.Get(3); v != 30 {
		t.Fatalf("write through capture a leaked into the live store: %d", v)
	}
}

// An empty delta still counts as a restore: it bumps the partition's
// version, since a restore invalidates incremental-snapshot bases, and
// a later write still leaves the capture alone.
func TestSnapshotSharedApplyEmptyDelta(t *testing.T) {
	src := byteViewStore(t)
	src.MarkClean()
	empty := src.AppendDeltaBytes(nil, 0, colbytes.AppendU64Vals)

	s := byteViewStore(t)
	snap := s.SnapshotShared()
	v0 := s.Version(0)
	if err := s.RestoreDeltaBytes(0, colbytes.NewReader(empty), (*colbytes.Reader).U64Vals); err != nil {
		t.Fatal(err)
	}
	if s.Version(0) == v0 {
		t.Fatal("empty delta did not bump the partition version")
	}
	s.Put(0, 100)
	if v, _ := snap.Get(0); v != 0 {
		t.Fatalf("post-delta write leaked into the capture: %d", v)
	}
	if v, _ := s.Get(0); v != 100 {
		t.Fatalf("live write lost: %d", v)
	}
}

// Deterministic encoding: the same logical content encodes to the same
// bytes whatever order and whichever writer filled it. The
// sync-vs-async byte-identical restore guarantee depends on this.
func TestEncodePartitionDeterministic(t *testing.T) {
	a, b := byteViewStore(t), byteViewStore(t)
	keys := []uint64{8, 2, 11, 4, 1, 6, 10, 0}
	for _, k := range keys {
		a.Put(k, k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		idx := int32(keys[i]) // the fixture's vertex IDs are its dense indices
		b.SetIdx(int(b.pt.PartOf[idx]), []int32{idx}, []uint64{keys[i]})
	}
	for p := 0; p < a.NumPartitions(); p++ {
		ba := a.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		bb := b.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		if !bytes.Equal(ba, bb) {
			t.Fatalf("partition %d encoding depends on insertion order", p)
		}
	}
}

// A capture's bytes must equal what a synchronous snapshot at the same
// barrier would have written, in every partition, even when encoded
// after the next superstep has overwritten the whole store.
func TestSnapshotSharedEncodesBarrierState(t *testing.T) {
	s := byteViewStore(t)
	n := uint64(len(s.pt.PartOf))
	for k := uint64(0); k < n; k++ {
		s.Put(k, k)
	}
	want := make([][]byte, s.NumPartitions())
	for p := range want {
		want[p] = s.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
	}
	snap := s.SnapshotShared()
	for k := uint64(0); k < n; k++ {
		s.Put(k, k+1000) // the next superstep overwrites everything
	}
	for p := range want {
		if got := snap.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals); !bytes.Equal(got, want[p]) {
			t.Fatalf("partition %d: capture bytes differ from the barrier-time encoding", p)
		}
		if bytes.Equal(s.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals), want[p]) {
			t.Fatalf("partition %d: the live store does not hold the overwrite", p)
		}
	}
}

// TestWorksetSnapshotSharedIsImmutable appends to and clears a
// ColWorkset after a capture, without the refills of a superstep, and
// checks the capture still holds the barrier's updates.
func TestWorksetSnapshotSharedIsImmutable(t *testing.T) {
	w := NewColWorkset[uint64]("workset", 2)
	w.Add(0, 1, 10)
	w.Add(0, 2, 20)
	w.Add(1, 3, 30)
	snap := w.SnapshotShared()
	w.Add(0, 4, 40) // append after capture
	w.ClearPartition(1)
	if snap.Len() != 3 {
		t.Fatalf("snapshot len = %d", snap.Len())
	}
	if idx, val := snap.Cols(0); !slices.Equal(idx, []int32{1, 2}) || !slices.Equal(val, []uint64{10, 20}) {
		t.Fatalf("snapshot partition 0 = %v/%v", idx, val)
	}
	if idx, _ := snap.Cols(1); !slices.Equal(idx, []int32{3}) {
		t.Fatalf("snapshot partition 1 = %v", idx)
	}
	if w.Len() != 3 { // [1 2 4] in partition 0, partition 1 cleared
		t.Fatalf("live len = %d", w.Len())
	}
}

// TestDenseStoreRecapture holds a revert capture to the values of the
// moment it was taken while the attempt writes, puts them back on
// Revert, and has the next Recapture recycle what the capture held: a
// steady stream of attempts writing every partition allocates nothing.
func TestDenseStoreRecapture(t *testing.T) {
	s := byteViewStore(t)
	all := func(fn func(idx int32)) {
		for idx := range int32(len(s.pt.PartOf)) {
			fn(idx)
		}
	}
	want := func(st *DenseStore[uint64], what string, val func(idx int32) uint64) {
		t.Helper()
		all(func(idx int32) {
			if v, ok := st.At(idx); !ok || v != val(idx) {
				t.Fatalf("%s: vertex %d holds %d (present %v), want %d", what, idx, v, ok, val(idx))
			}
		})
	}
	var c *DenseStore[uint64]
	attempt := func(k uint64) {
		c = s.Recapture(c)
		all(func(idx int32) { s.SetAt(idx, k*100+uint64(idx)) })
	}
	attempt(1)
	attempt(2)
	want(c, "capture during attempt 2", func(idx int32) uint64 { return 100 + uint64(idx) })
	s.Revert(c)
	want(s, "reverted attempt 2", func(idx int32) uint64 { return 100 + uint64(idx) })
	attempt(3)
	want(c, "capture during attempt 3", func(idx int32) uint64 { return 100 + uint64(idx) })
	want(s, "attempt 3", func(idx int32) uint64 { return 300 + uint64(idx) })
	if allocs := testing.AllocsPerRun(10, func() { attempt(4) }); allocs != 0 {
		t.Errorf("a steady attempt allocates %.0f times", allocs)
	}
	attempt(5)
	want(c, "capture during attempt 5", func(idx int32) uint64 { return 400 + uint64(idx) })
}
