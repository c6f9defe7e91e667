package state

import (
	"fmt"
	"slices"
)

// ColWorkset is the columnar counterpart of Workset: each partition's
// pending updates are two parallel append-only columns — the dense
// vertex index of the update's target and its numeric payload — so the
// columnar superstep source streams them without per-item boxing.
// SnapshotShared captures alias the column backing arrays (append-only
// between clears makes that safe), and checkpoint encoders write the
// columns directly as byte views (densebytes.go). A clear truncates
// a partition's columns so the next superstep refills the same arrays,
// unless a capture may alias them: then it drops them instead.
type ColWorkset[V any] struct {
	name     string
	idx      [][]int32
	val      [][]V
	versions []uint64
	// shared marks partitions whose arrays a SnapshotShared capture may
	// alias; the next clear drops them instead of truncating.
	shared []bool
}

// NewColWorkset creates an empty columnar workset with nparts
// partitions.
func NewColWorkset[V any](name string, nparts int) *ColWorkset[V] {
	if nparts < 1 {
		panic(fmt.Sprintf("state: workset %q: nparts must be >= 1, got %d", name, nparts))
	}
	return &ColWorkset[V]{
		name:     name,
		idx:      make([][]int32, nparts),
		val:      make([][]V, nparts),
		versions: make([]uint64, nparts),
		shared:   make([]bool, nparts),
	}
}

// Name returns the workset's name.
func (w *ColWorkset[V]) Name() string { return w.name }

// NumPartitions returns the partition count.
func (w *ColWorkset[V]) NumPartitions() int { return len(w.idx) }

// Add appends one update to partition p. Each fold task appends only to
// its own partition, so no locking is required.
func (w *ColWorkset[V]) Add(p int, idx int32, val V) {
	w.idx[p] = append(w.idx[p], idx)
	w.val[p] = append(w.val[p], val)
	w.bump(p)
}

// Grow returns n writable entries past the end of partition p's
// columns without changing their length: a caller fills a prefix of
// them and keeps it with Commit. The entries lie past every capture's
// view, so a shared partition may be grown too.
func (w *ColWorkset[V]) Grow(p, n int) ([]int32, []V) {
	at := len(w.idx[p])
	w.idx[p], w.val[p] = slices.Grow(w.idx[p], n), slices.Grow(w.val[p], n)
	return w.idx[p][at : at+n], w.val[p][at : at+n]
}

// Commit appends the first n entries the last Grow of partition p
// returned, bumping the version once; n == 0 changes nothing.
func (w *ColWorkset[V]) Commit(p, n int) {
	if n == 0 {
		return
	}
	at := len(w.idx[p])
	w.idx[p], w.val[p] = w.idx[p][:at+n], w.val[p][:at+n]
	w.bump(p)
}

// Len returns the total number of updates.
func (w *ColWorkset[V]) Len() int {
	n := 0
	for _, c := range w.idx {
		n += len(c)
	}
	return n
}

// PartitionLen returns the number of updates in partition p.
func (w *ColWorkset[V]) PartitionLen(p int) int { return len(w.idx[p]) }

// Cols returns partition p's columns, borrowed until the partition is
// next cleared (which may reuse the arrays); the caller must not modify
// them.
func (w *ColWorkset[V]) Cols(p int) ([]int32, []V) { return w.idx[p], w.val[p] }

// ClearAll empties every partition.
func (w *ColWorkset[V]) ClearAll() {
	for p := range w.idx {
		w.ClearPartition(p)
	}
}

// ClearPartition empties partition p (the crash of its owner), keeping
// its arrays for reuse unless a capture may alias them.
func (w *ColWorkset[V]) ClearPartition(p int) {
	if w.shared[p] {
		w.idx[p], w.val[p], w.shared[p] = nil, nil, false
	} else {
		w.idx[p], w.val[p] = w.idx[p][:0], w.val[p][:0]
	}
	w.bump(p)
}

// Version returns the change counter of partition p.
func (w *ColWorkset[V]) Version(p int) uint64 { return w.versions[p] }

func (w *ColWorkset[V]) bump(p int) { w.versions[p]++ }

// Swap exchanges the contents of two worksets (current vs next). A
// partition empty on both sides keeps its version, mirroring
// Workset.Swap.
func (w *ColWorkset[V]) Swap(other *ColWorkset[V]) {
	for p := range w.idx {
		if len(w.idx[p]) != 0 || len(other.idx[p]) != 0 {
			w.bump(p)
			other.bump(p)
		}
	}
	w.idx, other.idx = other.idx, w.idx
	w.val, other.val = other.val, w.val
	w.shared, other.shared = other.shared, w.shared
}

// SnapshotShared returns an O(parts) capture sharing the column backing
// arrays, safe because partitions are append-only between clears: a
// later Add writes beyond the captured length, which the capture's
// view does not reach. Both sides are marked shared, so neither clear
// reuses an array the other still reads.
func (w *ColWorkset[V]) SnapshotShared() *ColWorkset[V] {
	c := &ColWorkset[V]{
		name:     w.name,
		idx:      make([][]int32, len(w.idx)),
		val:      make([][]V, len(w.val)),
		versions: append([]uint64(nil), w.versions...),
		shared:   make([]bool, len(w.idx)),
	}
	for p := range w.idx {
		c.idx[p] = w.idx[p][:len(w.idx[p]):len(w.idx[p])]
		c.val[p] = w.val[p][:len(w.val[p]):len(w.val[p])]
		w.shared[p], c.shared[p] = true, true
	}
	return c
}
