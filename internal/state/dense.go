package state

import (
	"fmt"

	"optiflow/internal/graph"
)

// DenseStore is the columnar counterpart of Store for state whose key
// domain is exactly the vertex set of a graph: each partition holds its
// values in a flat column indexed by the vertex's local slot (see
// graph.Partitioning.Slot), so the superstep hot path reads and writes
// array entries instead of hashing into maps. It carries the recovery
// surface of the columnar jobs — copy-on-write captures, per-partition
// versions, delta logs — and serialises only as partition byte views
// (densebytes.go): the column dumped in slot order, so equal contents
// give identical bytes and the async writer encodes the columns
// directly without re-boxing.
type DenseStore[V any] struct {
	name string
	d    *graph.Dense
	pt   *graph.Partitioning

	// vals[p][slot] is the value of partition p's slot-th vertex;
	// has[p][slot] whether one is present. Slots ascend in VertexID
	// order, so in-order traversal is already sorted.
	vals  [][]V
	has   [][]bool
	count []int

	versions []uint64
	shared   []bool
	// spareVals[p] and spareHas[p] are arrays no one reads any more,
	// which partition p's next unshare copies into instead of
	// allocating; nil when there are none. Only Recapture fills them.
	spareVals [][]V
	spareHas  [][]bool

	// Delta-log tracking: per-slot dirty bits plus a distinct-dirty
	// counter, and the partition-wiped flag (see AppendDeltaBytes).
	dirty      [][]bool
	dirtyCount []int
	cleared    []bool
}

// NewDenseStore creates an empty dense store over the given graph view
// and partitioning.
func NewDenseStore[V any](name string, d *graph.Dense, pt *graph.Partitioning) *DenseStore[V] {
	s := &DenseStore[V]{
		name:       name,
		d:          d,
		pt:         pt,
		vals:       make([][]V, pt.N),
		has:        make([][]bool, pt.N),
		count:      make([]int, pt.N),
		versions:   make([]uint64, pt.N),
		shared:     make([]bool, pt.N),
		dirty:      make([][]bool, pt.N),
		dirtyCount: make([]int, pt.N),
		cleared:    make([]bool, pt.N),
	}
	for p := range s.vals {
		n := len(pt.Owned[p])
		s.vals[p] = make([]V, n)
		s.has[p] = make([]bool, n)
		s.dirty[p] = make([]bool, n)
	}
	return s
}

// Name returns the store's name (used in snapshots and diagnostics).
func (s *DenseStore[V]) Name() string { return s.name }

// NumPartitions returns the partition count.
func (s *DenseStore[V]) NumPartitions() int { return len(s.vals) }

// Partitioning returns the partitioning the store is laid out by.
func (s *DenseStore[V]) Partitioning() *graph.Partitioning { return s.pt }

// Len returns the total number of present entries.
func (s *DenseStore[V]) Len() int {
	n := 0
	for _, c := range s.count {
		n += c
	}
	return n
}

// unshare clones partition p's columns if a capture aliases them, so
// in-place writes cannot be observed through the capture. The clone
// fills the partition's spare arrays when it has them.
func (s *DenseStore[V]) unshare(p int) {
	if !s.shared[p] {
		return
	}
	var vals []V
	var has []bool
	if s.spareVals != nil {
		vals, has = s.spareVals[p][:0], s.spareHas[p][:0]
		s.spareVals[p], s.spareHas[p] = nil, nil
	}
	s.vals[p] = append(vals, s.vals[p]...)
	s.has[p] = append(has, s.has[p]...)
	s.shared[p] = false
}

func (s *DenseStore[V]) bump(p int) { s.versions[p]++ }

// Version returns a counter that increases whenever partition p's
// contents change: incremental checkpoints skip partitions whose
// counter has not moved since the last one.
func (s *DenseStore[V]) Version(p int) uint64 { return s.versions[p] }

func (s *DenseStore[V]) markDirty(p int, slot int32) {
	if !s.dirty[p][slot] {
		s.dirty[p][slot] = true
		s.dirtyCount[p]++
	}
}

func (s *DenseStore[V]) markCleared(p int) {
	s.cleared[p] = true
	for i := range s.dirty[p] {
		s.dirty[p][i] = false
	}
	s.dirtyCount[p] = 0
}

// At returns the value of the vertex with dense index i.
func (s *DenseStore[V]) At(i int32) (V, bool) {
	p, slot := s.pt.PartOf[i], s.pt.Slot[i]
	if !s.has[p][slot] {
		var zero V
		return zero, false
	}
	return s.vals[p][slot], true
}

// SetAt stores v for the vertex with dense index i.
func (s *DenseStore[V]) SetAt(i int32, v V) {
	s.SetSlot(int(s.pt.PartOf[i]), s.pt.Slot[i], v)
}

// GetSlot returns partition p's slot-th value. The hot path uses slot
// addressing when it already iterates a partition's own vertices.
func (s *DenseStore[V]) GetSlot(p int, slot int32) (V, bool) {
	if !s.has[p][slot] {
		var zero V
		return zero, false
	}
	return s.vals[p][slot], true
}

// SetSlot stores v in partition p's slot-th entry.
func (s *DenseStore[V]) SetSlot(p int, slot int32, v V) {
	s.unshare(p)
	if !s.has[p][slot] {
		s.has[p][slot] = true
		s.count[p]++
	}
	s.vals[p][slot] = v
	s.bump(p)
	s.markDirty(p, slot)
}

// SetIdx stores vals[i] for the vertex with dense index idx[i], every
// one owned by partition p: one unshare and one version bump for the
// lot, then each slot's value, presence, count and dirty mark. An empty
// idx changes nothing, so a partition nothing is written to keeps its
// version and its arrays stay shared with a capture.
func (s *DenseStore[V]) SetIdx(p int, idx []int32, vals []V) {
	if len(idx) == 0 {
		return
	}
	s.unshare(p)
	col, has, dirty, slot := s.vals[p], s.has[p], s.dirty[p], s.pt.Slot
	for i, d := range idx {
		sl := slot[d]
		if !has[sl] {
			has[sl] = true
			s.count[p]++
		}
		if !dirty[sl] {
			dirty[sl] = true
			s.dirtyCount[p]++
		}
		col[sl] = vals[i]
	}
	s.bump(p)
}

// Column returns partition p's value and presence columns, indexed by
// slot, for reading only: a capture may share them.
func (s *DenseStore[V]) Column(p int) (vals []V, has []bool) {
	return s.vals[p], s.has[p]
}

// WriteAll returns partition p's value column, indexed by slot, for a
// caller that overwrites every slot: it unshares the partition once,
// marks every slot present and dirty, and bumps the version once. A
// slot that was absent reads as the zero value.
func (s *DenseStore[V]) WriteAll(p int) []V {
	s.unshare(p)
	var zero V
	for slot, h := range s.has[p] {
		if !h {
			s.has[p][slot], s.vals[p][slot] = true, zero
		}
		s.dirty[p][slot] = true
	}
	s.count[p], s.dirtyCount[p] = len(s.has[p]), len(s.has[p])
	s.bump(p)
	return s.vals[p]
}

// Get returns the value stored for vertex key k (a VertexID).
func (s *DenseStore[V]) Get(k uint64) (V, bool) {
	i, ok := s.d.IndexOf(graph.VertexID(k))
	if !ok {
		var zero V
		return zero, false
	}
	return s.At(i)
}

// Put stores v for vertex key k. Keys outside the graph's vertex set
// are a programming error: the dense layout has no slot for them.
func (s *DenseStore[V]) Put(k uint64, v V) {
	i, ok := s.d.IndexOf(graph.VertexID(k))
	if !ok {
		panic(fmt.Sprintf("state: dense store %q: key %d is not a vertex", s.name, k))
	}
	s.SetAt(i, v)
}

// ClearPartition drops every entry of partition p — the effect of the
// worker owning p crashing. The columns are replaced wholesale, so no
// clone is needed even when shared.
func (s *DenseStore[V]) ClearPartition(p int) {
	n := len(s.pt.Owned[p])
	s.vals[p] = make([]V, n)
	s.has[p] = make([]bool, n)
	s.shared[p] = false
	s.count[p] = 0
	s.bump(p)
	s.markCleared(p)
}

// ClearAll drops every entry of every partition.
func (s *DenseStore[V]) ClearAll() {
	for p := range s.vals {
		s.ClearPartition(p)
	}
}

// RangePartition iterates partition p's present entries in ascending
// key order (slot order is VertexID order by construction). It reports
// whether iteration ran to completion.
func (s *DenseStore[V]) RangePartition(p int, fn func(k uint64, v V) bool) bool {
	owned := s.pt.Owned[p]
	ids := s.d.IDs()
	for slot, idx := range owned {
		if !s.has[p][slot] {
			continue
		}
		if !fn(uint64(ids[idx]), s.vals[p][slot]) {
			return false
		}
	}
	return true
}

// Range iterates all present entries, partition by partition, in
// ascending key order within each partition.
func (s *DenseStore[V]) Range(fn func(k uint64, v V) bool) {
	for p := range s.vals {
		if !s.RangePartition(p, fn) {
			return
		}
	}
}

// SnapshotShared returns a copy-on-write capture: O(parts) at the
// barrier, column arrays aliased until either side writes (see
// unshare). Checkpoint encoders walk the captured columns directly.
func (s *DenseStore[V]) SnapshotShared() *DenseStore[V] {
	c := &DenseStore[V]{
		name:       s.name,
		d:          s.d,
		pt:         s.pt,
		vals:       append([][]V(nil), s.vals...),
		has:        append([][]bool(nil), s.has...),
		count:      append([]int(nil), s.count...),
		versions:   append([]uint64(nil), s.versions...),
		shared:     make([]bool, len(s.vals)),
		dirty:      make([][]bool, len(s.vals)),
		dirtyCount: make([]int, len(s.vals)),
		cleared:    make([]bool, len(s.vals)),
	}
	for p := range s.vals {
		s.shared[p] = true
		c.shared[p] = true
		c.dirty[p] = make([]bool, len(s.dirty[p]))
	}
	return c
}

// Recapture is SnapshotShared for a capture that holds an attempt
// uncommitted (a hosted step's revert capture, see Revert). c is the
// capture the previous Recapture of s returned, nil the first time;
// the attempt it held has ended. Recapture reuses c, and the arrays c
// held that s no longer holds become the copy targets of the next
// unshare of their partitions: a partition written by every attempt
// alternates between two arrays, and a steady stream of attempts
// allocates nothing. The capture has no dirty columns and must not be
// written. Recapture's captures must be the only captures of s: another
// one could still read an array recycled here.
func (s *DenseStore[V]) Recapture(c *DenseStore[V]) *DenseStore[V] {
	if c == nil {
		c = &DenseStore[V]{name: s.name, d: s.d, pt: s.pt}
	}
	if s.spareVals == nil {
		s.spareVals, s.spareHas = make([][]V, len(s.vals)), make([][]bool, len(s.vals))
	}
	for p := range c.vals {
		if !sameArray(c.vals[p], s.vals[p]) {
			s.spareVals[p], s.spareHas[p] = c.vals[p], c.has[p]
		}
	}
	c.vals = append(c.vals[:0], s.vals...)
	c.has = append(c.has[:0], s.has...)
	c.count = append(c.count[:0], s.count...)
	c.versions = append(c.versions[:0], s.versions...)
	for p := range s.shared {
		s.shared[p] = true
	}
	return c
}

// Revert puts s back to capture c, which Recapture returned, and ends
// c's attempt: the arrays written since are dropped, and c's are s's
// own again. Dirty marks stay: a delta may carry a slot more than
// changed.
func (s *DenseStore[V]) Revert(c *DenseStore[V]) {
	copy(s.vals, c.vals)
	copy(s.has, c.has)
	copy(s.count, c.count)
	copy(s.versions, c.versions)
	clear(s.shared)
}

// sameArray reports whether two columns, both views from index 0 of
// their arrays, share one.
func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// MarkClean forgets all recorded changes: the next AppendDeltaBytes
// starts from here.
func (s *DenseStore[V]) MarkClean() {
	for p := range s.vals {
		for i := range s.dirty[p] {
			s.dirty[p][i] = false
		}
		s.dirtyCount[p] = 0
		s.cleared[p] = false
	}
}
