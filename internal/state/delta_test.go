package state

import (
	"bytes"
	"math/rand"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// The delta log of DenseStore: AppendDeltaBytes writes each
// partition's changes since the last MarkClean, and RestoreDeltaBytes
// replays them, so a base view plus the ordered deltas reproduce the
// store.

// emptyDenseStore is a store over n vertices (IDs 0..n-1) in nparts
// partitions, with nothing written.
func emptyDenseStore(n, nparts int) *DenseStore[uint64] {
	b := graph.NewBuilder(true)
	for v := 0; v < n; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	d := b.Build().Dense()
	return NewDenseStore[uint64]("labels", d, d.Partitioning(nparts))
}

// appendDelta is every partition's delta, in order; it marks s clean.
func appendDelta(s *DenseStore[uint64]) []byte {
	var b []byte
	for p := 0; p < s.NumPartitions(); p++ {
		b = s.AppendDeltaBytes(b, p, colbytes.AppendU64Vals)
	}
	s.MarkClean()
	return b
}

func applyDelta(t *testing.T, s *DenseStore[uint64], data []byte) {
	t.Helper()
	r := colbytes.NewReader(data)
	for p := 0; p < s.NumPartitions(); p++ {
		if err := s.RestoreDeltaBytes(p, r, (*colbytes.Reader).U64Vals); err != nil {
			t.Fatal(err)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after the delta", r.Remaining())
	}
}

// replicate is a store over s's partitioning restored from s's views;
// it marks s clean.
func replicate(t *testing.T, s *DenseStore[uint64]) *DenseStore[uint64] {
	t.Helper()
	c := NewDenseStore[uint64](s.name, s.d, s.pt)
	for p := 0; p < s.NumPartitions(); p++ {
		view := s.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		if err := c.RestorePartitionView(p, view, (*colbytes.Reader).U64Vals); err != nil {
			t.Fatal(err)
		}
	}
	s.MarkClean()
	return c
}

func requireStoresEqual(t *testing.T, got, want *DenseStore[uint64]) {
	t.Helper()
	for p := 0; p < want.NumPartitions(); p++ {
		g := got.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		w := want.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		if !bytes.Equal(g, w) {
			t.Fatalf("partition %d differs", p)
		}
	}
}

func TestDeltaReplayReproducesState(t *testing.T) {
	src := emptyDenseStore(80, 4)
	for k := uint64(0); k < 50; k++ {
		src.Put(k, k)
	}
	replica := replicate(t, src)

	// Rounds of writes, one delta each; now and then a partition is
	// wiped and refilled.
	rng := rand.New(rand.NewSource(1))
	var deltas [][]byte
	for round := 0; round < 10; round++ {
		if round%4 == 3 {
			src.ClearPartition(rng.Intn(4))
		}
		for i := 0; i < 20; i++ {
			src.Put(uint64(rng.Intn(80)), uint64(rng.Intn(1000)))
		}
		deltas = append(deltas, appendDelta(src))
	}
	for _, d := range deltas {
		applyDelta(t, replica, d)
	}
	requireStoresEqual(t, replica, src)
}

func TestDeltaOnlyCarriesChanges(t *testing.T) {
	s := emptyDenseStore(1000, 4)
	for k := uint64(0); k < 1000; k++ {
		s.Put(k, k)
	}
	full := appendDelta(s) // everything dirty: effectively a full dump
	s.Put(1, 42)
	s.Put(2, 43)
	small := appendDelta(s)
	if len(small) >= len(full)/10 {
		t.Fatalf("2-key delta is %d bytes, full dump %d", len(small), len(full))
	}
	empty := appendDelta(s)
	if len(empty) >= len(small) {
		t.Fatalf("empty delta (%d bytes) not smaller than 2-key delta (%d)", len(empty), len(small))
	}
}

func TestDeltaHandlesClearedPartitions(t *testing.T) {
	src := emptyDenseStore(40, 4)
	for k := uint64(0); k < 40; k++ {
		src.Put(k, 1)
	}
	replica := replicate(t, src)

	src.ClearPartition(2)
	src.SetSlot(2, 0, 7)
	applyDelta(t, replica, appendDelta(src))
	requireStoresEqual(t, replica, src)
	if replica.count[2] != 1 {
		t.Fatalf("cleared partition replicated with %d entries, want 1", replica.count[2])
	}
}

func TestDeltaDirtyCount(t *testing.T) {
	s := emptyDenseStore(8, 2)
	dirty := func() int {
		n := 0
		for _, c := range s.dirtyCount {
			n += c
		}
		return n
	}
	if dirty() != 0 {
		t.Fatal("fresh store dirty")
	}
	s.Put(1, 1)
	s.Put(1, 2) // same key: still one dirty entry
	s.Put(2, 1)
	if got := dirty(); got != 2 {
		t.Fatalf("dirty = %d, want 2", got)
	}
	s.MarkClean()
	if dirty() != 0 {
		t.Fatal("MarkClean failed")
	}
}
