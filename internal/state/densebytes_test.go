package state

import (
	"bytes"
	"strings"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// byteViewStore builds a small dense store over a 12-vertex graph
// split across 3 partitions, with a sparse fill (every third vertex).
func byteViewStore(t *testing.T) *DenseStore[uint64] {
	t.Helper()
	b := graph.NewBuilder(true)
	for v := 0; v < 12; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	d := b.Build().Dense()
	pt := d.Partitioning(3)
	s := NewDenseStore[uint64]("labels", d, pt)
	for v := uint64(0); v < 12; v += 3 {
		s.Put(v, v*10)
	}
	return s
}

func TestPartitionByteViewRoundTrip(t *testing.T) {
	src := byteViewStore(t)
	dst := NewDenseStore[uint64]("labels", src.d, src.pt)
	for p := 0; p < src.NumPartitions(); p++ {
		view := src.AppendPartitionBytes(nil, p, colbytes.AppendU64)
		ver := dst.Version(p)
		if err := dst.RestorePartitionBytes(p, colbytes.NewReader(view), (*colbytes.Reader).U64); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		if dst.Version(p) == ver {
			t.Errorf("partition %d: restore did not bump the version", p)
		}
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d entries, want %d", dst.Len(), src.Len())
	}
	src.Range(func(k uint64, v uint64) bool {
		got, ok := dst.Get(k)
		if !ok || got != v {
			t.Errorf("key %d: got (%d, %v), want (%d, true)", k, got, ok, v)
		}
		return true
	})
	// Determinism: equal contents => byte-identical views.
	for p := 0; p < src.NumPartitions(); p++ {
		a := src.AppendPartitionBytes(nil, p, colbytes.AppendU64)
		b := dst.AppendPartitionBytes(nil, p, colbytes.AppendU64)
		if string(a) != string(b) {
			t.Errorf("partition %d: views differ after round-trip", p)
		}
	}
}

// TestPartitionByteViewTruncation pins the no-half-apply property: a
// view cut at any byte boundary must fail and leave the target store
// untouched.
func TestPartitionByteViewTruncation(t *testing.T) {
	src := byteViewStore(t)
	view := src.AppendPartitionBytes(nil, 0, colbytes.AppendU64)
	for cut := 0; cut < len(view); cut++ {
		dst := NewDenseStore[uint64]("labels", src.d, src.pt)
		dst.Put(0, 999) // pre-existing entry that must survive a failed restore
		if err := dst.RestorePartitionBytes(0, colbytes.NewReader(view[:cut]), (*colbytes.Reader).U64); err == nil {
			t.Fatalf("cut at %d: restore succeeded on a truncated view", cut)
		}
		if got, ok := dst.Get(0); !ok || got != 999 {
			t.Fatalf("cut at %d: failed restore modified the store", cut)
		}
	}
}

func TestPartitionByteViewWrongPartition(t *testing.T) {
	src := byteViewStore(t)
	// Partition sizes differ (12 vertices over 3 partitions is even,
	// so misroute to a store with a different partitioning instead).
	b := graph.NewBuilder(true)
	for v := 0; v < 12; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	d := b.Build().Dense()
	other := NewDenseStore[uint64]("labels", d, d.Partitioning(2))
	view := src.AppendPartitionBytes(nil, 0, colbytes.AppendU64)
	err := other.RestorePartitionBytes(0, colbytes.NewReader(view), (*colbytes.Reader).U64)
	if err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("misrouted view: err = %v, want slot-count mismatch", err)
	}
}

// TestPartitionByteViewCOW pins the snapshot-isolation property:
// restoring into a store after SnapshotShared must not be visible
// through the capture.
func TestPartitionByteViewCOW(t *testing.T) {
	src := byteViewStore(t)
	empty := NewDenseStore[uint64]("labels", src.d, src.pt)
	cap0 := empty.SnapshotShared()
	view := src.AppendPartitionBytes(nil, 0, colbytes.AppendU64)
	if err := empty.RestorePartitionBytes(0, colbytes.NewReader(view), (*colbytes.Reader).U64); err != nil {
		t.Fatal(err)
	}
	if cap0.Len() != 0 {
		t.Fatalf("restore leaked %d entries into a shared capture", cap0.Len())
	}
}

// TestEncodeReusesScratchWithoutStaleRows encodes a store, shrinks one
// partition and grows another, and encodes again: the reused per-partition
// pairs scratch must give exactly the bytes of a fresh store with the
// same contents.
func TestEncodeReusesScratchWithoutStaleRows(t *testing.T) {
	encode := func(s *DenseStore[uint64]) string {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	reused := byteViewStore(t)
	for v := uint64(1); v < 12; v += 3 {
		reused.Put(v, v)
	}
	encode(reused)
	reused.ClearPartition(0)
	reused.Put(11, 7)

	fresh := NewDenseStore[uint64]("labels", reused.d, reused.pt)
	reused.Range(func(k, v uint64) bool { fresh.Put(k, v); return true })
	if encode(reused) != encode(fresh) {
		t.Fatal("a re-encode carried rows over from the previous encode")
	}
}
