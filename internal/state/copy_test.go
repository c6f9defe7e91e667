package state

// Deep copies that only tests take: program code captures with
// SnapshotShared or Recapture and moves state as partition byte views.

// Snapshot returns a deep copy of the store's contents.
func (s *DenseStore[V]) Snapshot() *DenseStore[V] {
	c := NewDenseStore[V](s.name, s.d, s.pt)
	for p := range s.vals {
		copy(c.vals[p], s.vals[p])
		copy(c.has[p], s.has[p])
		c.count[p] = s.count[p]
	}
	return c
}

// Snapshot returns a deep copy of the workset.
func (w *ColWorkset[V]) Snapshot() *ColWorkset[V] {
	c := NewColWorkset[V](w.name, len(w.idx))
	for p := range w.idx {
		c.idx[p] = append([]int32(nil), w.idx[p]...)
		c.val[p] = append([]V(nil), w.val[p]...)
	}
	return c
}
