package state

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// The async checkpoint pipeline captures state with SnapshotShared at
// the superstep barrier and encodes it on background goroutines while
// the live store keeps mutating. The copy-on-write contract: the
// capture is immutable, and the live side pays for a partition clone
// only on its first post-capture write to that partition.

func TestSnapshotSharedIsImmutable(t *testing.T) {
	s := NewStore[uint64]("labels", 4)
	for k := uint64(0); k < 40; k++ {
		s.Put(k, k*10)
	}
	snap := s.SnapshotShared()

	s.Put(3, 999)  // overwrite
	s.Delete(5)    // delete
	s.Put(1000, 1) // insert
	s.ClearPartition(2)

	if v, ok := snap.Get(3); !ok || v != 30 {
		t.Fatalf("snapshot saw overwrite: %d %v", v, ok)
	}
	if v, ok := snap.Get(5); !ok || v != 50 {
		t.Fatalf("snapshot saw delete: %d %v", v, ok)
	}
	if _, ok := snap.Get(1000); ok {
		t.Fatal("snapshot saw insert")
	}
	if snap.Len() != 40 {
		t.Fatalf("snapshot len = %d", snap.Len())
	}
	// The live store sees all its own mutations.
	if v, _ := s.Get(3); v != 999 {
		t.Fatalf("live overwrite lost: %d", v)
	}
	if _, ok := s.Get(5); ok {
		t.Fatal("live delete lost")
	}
}

func TestSnapshotSharedChainsAndReverseProtection(t *testing.T) {
	s := NewStore[uint64]("labels", 2)
	s.Put(1, 1)
	// Two captures of the same state may alias the same maps; writing
	// through either snapshot (restores do) must not corrupt the other
	// or the live store.
	a := s.SnapshotShared()
	b := s.SnapshotShared()
	a.Put(1, 100)
	if v, _ := b.Get(1); v != 1 {
		t.Fatalf("write through snapshot a leaked into b: %d", v)
	}
	if v, _ := s.Get(1); v != 1 {
		t.Fatalf("write through snapshot a leaked into live store: %d", v)
	}
}

func TestSnapshotSharedApplyDeltaUnshares(t *testing.T) {
	src := NewStore[uint64]("labels", 2)
	src.Put(2, 22)
	var buf bytes.Buffer
	if err := src.EncodeDelta(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}

	s := NewStore[uint64]("labels", 2)
	s.Put(1, 1)
	snap := s.SnapshotShared()
	if err := s.ApplyDelta(gob.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Get(2); ok {
		t.Fatal("snapshot saw ApplyDelta upsert")
	}
	if v, _ := s.Get(2); v != 22 {
		t.Fatal("delta lost on live store")
	}
}

// Regression test for a snapshotwrite (deepvet) finding: ApplyDelta's
// cleared-partition replay used to write through the live partition
// map without unsharing it first, so a capture taken at the barrier
// could observe the replayed contents. The replacement map is now
// built privately and published wholesale.
func TestSnapshotSharedApplyClearedDelta(t *testing.T) {
	src := NewStore[uint64]("labels", 2)
	src.Put(1, 11)
	src.Put(2, 22)
	src.MarkClean()
	src.ClearAll() // the next delta carries Cleared partitions
	src.Put(3, 33)
	var buf bytes.Buffer
	if err := src.EncodeDelta(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}

	s := NewStore[uint64]("labels", 2)
	s.Put(1, 1)
	s.Put(2, 2)
	snap := s.SnapshotShared()
	if err := s.ApplyDelta(gob.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}

	// The capture still shows barrier-time contents.
	if v, ok := snap.Get(1); !ok || v != 1 {
		t.Fatalf("snapshot lost key 1: %d %v", v, ok)
	}
	if v, ok := snap.Get(2); !ok || v != 2 {
		t.Fatalf("snapshot lost key 2: %d %v", v, ok)
	}
	if _, ok := snap.Get(3); ok {
		t.Fatal("snapshot saw cleared-delta replay")
	}
	// The live store is exactly the source's post-clear state.
	if _, ok := s.Get(1); ok {
		t.Fatal("cleared-delta replay kept stale key 1")
	}
	if v, _ := s.Get(3); v != 33 {
		t.Fatalf("cleared-delta replay lost upsert: %d", v)
	}
	if s.Len() != 1 {
		t.Fatalf("live len = %d, want 1", s.Len())
	}
}

// The empty-delta path of the same fix: replaying a no-change delta
// onto shared partitions must leave the sharing intact (a later write
// still clones before mutating) while still bumping the partition
// versions, since a restore invalidates incremental-snapshot bases.
func TestSnapshotSharedApplyEmptyDelta(t *testing.T) {
	src := NewStore[uint64]("labels", 2)
	var buf bytes.Buffer
	if err := src.EncodeDelta(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}

	s := NewStore[uint64]("labels", 2)
	s.Put(1, 1)
	snap := s.SnapshotShared()
	v0, v1 := s.Version(0), s.Version(1)
	if err := s.ApplyDelta(gob.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if s.Version(0) == v0 || s.Version(1) == v1 {
		t.Fatal("empty delta did not bump partition versions")
	}
	s.Put(1, 100) // must copy-on-write, not mutate the aliased map
	if v, _ := snap.Get(1); v != 1 {
		t.Fatalf("post-delta write leaked into the capture: %d", v)
	}
	if v, _ := s.Get(1); v != 100 {
		t.Fatalf("live write lost: %d", v)
	}
}

// Deterministic encoding: the same logical content encodes to the same
// bytes regardless of insertion order (maps are encoded as sorted
// pairs). The sync-vs-async byte-identical restore guarantee depends on
// this.
func TestEncodePartitionDeterministic(t *testing.T) {
	a := NewStore[uint64]("labels", 2)
	b := NewStore[uint64]("labels", 2)
	keys := []uint64{8, 2, 14, 4, 100, 6, 12, 0}
	for _, k := range keys {
		a.Put(k, k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Put(keys[i], keys[i])
	}
	for p := 0; p < 2; p++ {
		var ba, bb bytes.Buffer
		if err := a.EncodePartition(p, gob.NewEncoder(&ba)); err != nil {
			t.Fatal(err)
		}
		if err := b.EncodePartition(p, gob.NewEncoder(&bb)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("partition %d encoding depends on insertion order", p)
		}
	}
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("full-store encoding depends on insertion order")
	}
}

// A capture's bytes must equal what a synchronous snapshot at the same
// barrier would have written, even when encoded after further
// mutations.
func TestSnapshotSharedEncodesBarrierState(t *testing.T) {
	s := NewStore[uint64]("labels", 2)
	for k := uint64(0); k < 20; k++ {
		s.Put(k, k)
	}
	var want bytes.Buffer
	if err := s.EncodePartition(0, gob.NewEncoder(&want)); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotShared()
	for k := uint64(0); k < 20; k++ {
		s.Put(k, k+1000) // the next superstep overwrites everything
	}
	var got bytes.Buffer
	if err := snap.EncodePartition(0, gob.NewEncoder(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("capture bytes differ from the barrier-time encoding")
	}
}

func TestWorksetSnapshotSharedIsImmutable(t *testing.T) {
	w := NewWorkset[uint64]("tasks", 2)
	w.Add(0, 1)
	w.Add(0, 2)
	w.Add(1, 3)
	snap := w.SnapshotShared()
	w.Add(0, 4) // append after capture
	w.ClearPartition(1)
	if snap.Len() != 3 {
		t.Fatalf("snapshot len = %d", snap.Len())
	}
	if got := snap.Items(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("snapshot partition 0 = %v", got)
	}
	if got := snap.Items(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("snapshot partition 1 = %v", got)
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
