package state

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"

	"optiflow/internal/graph"
)

// storeLen counts s's entries through Range.
func storeLen[V any](s *Store[V]) int {
	n := 0
	s.Range(func(uint64, V) bool { n++; return true })
	return n
}

func TestStoreBasics(t *testing.T) {
	s := NewStore[string]("labels", 4)
	if _, ok := s.Get(7); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put(7, "seven")
	s.Put(8, "eight")
	if v, ok := s.Get(7); !ok || v != "seven" {
		t.Fatalf("Get(7) = %q, %v", v, ok)
	}
	if n := storeLen(s); n != 2 {
		t.Fatalf("%d entries, want 2", n)
	}
	s.Put(7, "SEVEN")
	if v, _ := s.Get(7); v != "SEVEN" {
		t.Fatal("overwrite failed")
	}
	if storeLen(s) != 2 {
		t.Fatal("overwrite changed length")
	}
}

func TestStoreRoutesToOwnerPartition(t *testing.T) {
	s := NewStore[int]("routing", 8)
	for k := uint64(0); k < 1000; k++ {
		s.Put(k, int(k))
	}
	total := 0
	for p := 0; p < 8; p++ {
		s.RangePartition(p, func(k uint64, _ int) bool {
			if graph.Partition(graph.VertexID(k), 8) != p {
				t.Fatalf("key %d stored in partition %d, owner is %d", k, p, graph.Partition(graph.VertexID(k), 8))
			}
			total++
			return true
		})
	}
	if total != 1000 {
		t.Fatalf("ranged %d entries", total)
	}
	if s.PartitionOf(5) != graph.Partition(5, 8) {
		t.Fatal("PartitionOf disagrees with graph.Partition")
	}
}

func TestClearPartitionOnlyDropsThatPartition(t *testing.T) {
	s := NewStore[int]("clear", 4)
	for k := uint64(0); k < 100; k++ {
		s.Put(k, 1)
	}
	victim, lost := 2, 0
	s.RangePartition(victim, func(uint64, int) bool { lost++; return true })
	if lost == 0 {
		t.Fatal("test needs a non-empty victim partition")
	}
	s.ClearPartition(victim)
	if !s.RangePartition(victim, func(uint64, int) bool { return false }) {
		t.Fatal("victim not cleared")
	}
	if n := storeLen(s); n != 100-lost {
		t.Fatalf("%d entries, want %d", n, 100-lost)
	}
	s.ClearAll()
	if storeLen(s) != 0 {
		t.Fatal("ClearAll failed")
	}
}

func TestRangeDeterministicOrder(t *testing.T) {
	s := NewStore[int]("order", 3)
	for k := uint64(0); k < 50; k++ {
		s.Put(k, int(k))
	}
	var first, second []uint64
	s.Range(func(k uint64, _ int) bool { first = append(first, k); return true })
	s.Range(func(k uint64, _ int) bool { second = append(second, k); return true })
	if len(first) != 50 || len(second) != 50 {
		t.Fatal("range missed entries")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("range order not deterministic")
		}
	}
	// Early termination.
	n := 0
	s.Range(func(uint64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestSnapshotIsolation holds DenseStore.Snapshot, the deep copy tests
// take as a twin, apart from the store it copies.
func TestSnapshotIsolation(t *testing.T) {
	s := byteViewStore(t)
	c := s.Snapshot()
	s.Put(0, 99)
	s.Put(1, 20)
	if v, _ := c.Get(0); v != 0 {
		t.Fatalf("snapshot mutated: %d", v)
	}
	if _, ok := c.Get(1); ok || c.Len() != 4 {
		t.Fatalf("snapshot holds %d entries, want 4", c.Len())
	}
	c.Put(3, 7)
	if v, _ := s.Get(3); v != 30 {
		t.Fatalf("a write to the snapshot reached the store: %d", v)
	}
}

// encodeStore is s written by EncodeTo.
func encodeStore[V any](t *testing.T, s *Store[V]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeTo(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeStore[V any](s *Store[V], data []byte) error {
	return s.DecodeFrom(gob.NewDecoder(bytes.NewReader(data)))
}

func TestStoreEncodeDecodeRoundTrip(t *testing.T) {
	f := func(keys []uint64, vals []int64) bool {
		s := NewStore[int64]("prop", 4)
		for i, k := range keys {
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			s.Put(k, v)
		}
		d := NewStore[int64]("prop", 4)
		if err := decodeStore(d, encodeStore(t, s)); err != nil {
			return false
		}
		if storeLen(d) != storeLen(s) {
			return false
		}
		ok := true
		s.Range(func(k uint64, v int64) bool {
			got, found := d.Get(k)
			if !found || got != v {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDecodeRejectsMismatch(t *testing.T) {
	s := NewStore[int]("alpha", 2)
	s.Put(1, 1)
	data := encodeStore(t, s)
	if err := decodeStore(NewStore[int]("beta", 2), data); err == nil {
		t.Fatal("decode accepted wrong store name")
	}
	if err := decodeStore(NewStore[int]("alpha", 3), data); err == nil {
		t.Fatal("decode accepted wrong partition count")
	}
}

func TestTableView(t *testing.T) {
	s := NewStore[string]("view", 4)
	s.Put(10, "ten")
	p := s.PartitionOf(10)
	tbl := s.Table(p)
	if v, ok := tbl.Get(10); !ok || v.(string) != "ten" {
		t.Fatalf("table get = %v, %v", v, ok)
	}
	if _, ok := tbl.Get(11); ok && s.PartitionOf(11) != p {
		t.Fatal("table view leaked other partition")
	}
	other := (p + 1) % 4
	if _, ok := s.Table(other).Get(10); ok {
		t.Fatal("wrong partition sees the key")
	}
}

func TestWorksetBasics(t *testing.T) {
	w := NewWorkset[string]("ws", 3)
	w.Add(0, "a")
	w.Add(0, "b")
	w.Add(2, "c")
	if w.Len() != 3 || len(w.Items(0)) != 2 || len(w.Items(1)) != 0 {
		t.Fatalf("lens wrong: %d", w.Len())
	}
	if items := w.Items(0); items[0] != "a" || items[1] != "b" {
		t.Fatalf("items = %v", items)
	}
	w.ClearPartition(0)
	if w.Len() != 1 {
		t.Fatal("ClearPartition failed")
	}
	w.ClearAll()
	if w.Len() != 0 {
		t.Fatal("ClearAll failed")
	}
}

// encodeWorkset is w written by EncodeTo.
func encodeWorkset[T any](t *testing.T, w *Workset[T]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.EncodeTo(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeWorkset[T any](w *Workset[T], data []byte) error {
	return w.DecodeFrom(gob.NewDecoder(bytes.NewReader(data)))
}

// TestWorksetSwapKeepsNames swaps contents, not names: each workset's
// encoding still decodes only into a workset of its own name.
func TestWorksetSwapKeepsNames(t *testing.T) {
	a := NewWorkset[int]("current", 2)
	b := NewWorkset[int]("next", 2)
	a.Add(0, 1)
	b.Add(1, 2)
	b.Add(1, 3)
	a.Swap(b)
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatalf("swap contents wrong: %d, %d", a.Len(), b.Len())
	}
	if decodeWorkset(NewWorkset[int]("current", 2), encodeWorkset(t, a)) != nil ||
		decodeWorkset(NewWorkset[int]("next", 2), encodeWorkset(t, b)) != nil {
		t.Fatal("swap exchanged names")
	}
}

// TestWorksetSnapshotAndEncode round-trips a workset through the gob
// snapshot its jobs write, and rejects one of another name or
// partition count.
func TestWorksetSnapshotAndEncode(t *testing.T) {
	w := NewWorkset[int]("ws", 2)
	w.Add(0, 1)
	w.Add(1, 2)
	w.Add(0, 3)
	data := encodeWorkset(t, w)
	d := NewWorkset[int]("ws", 2)
	d.Add(1, 9)
	if err := decodeWorkset(d, data); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || len(d.Items(0)) != 2 || d.Items(1)[0] != 2 {
		t.Fatalf("decoded %v and %v", d.Items(0), d.Items(1))
	}
	if decodeWorkset(NewWorkset[int]("other", 2), data) == nil {
		t.Fatal("decode accepted wrong name")
	}
	if decodeWorkset(NewWorkset[int]("ws", 3), data) == nil {
		t.Fatal("decode accepted wrong partition count")
	}
}

func TestNewStorePanicsOnBadPartitions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewStore[int]("bad", 0)
}

func TestNewWorksetPanicsOnBadPartitions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewWorkset[int]("bad", 0)
}
