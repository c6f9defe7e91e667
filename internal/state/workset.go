package state

import (
	"encoding/gob"
	"fmt"
)

// Workset holds the update stream of a delta iteration, partitioned by
// the key of each item. The delta iteration consumes the workset at
// every superstep and produces the next one; the iteration terminates
// once the workset is empty (§2.1).
type Workset[T any] struct {
	name  string
	parts [][]T
}

// NewWorkset creates an empty workset with nparts partitions.
func NewWorkset[T any](name string, nparts int) *Workset[T] {
	if nparts < 1 {
		panic(fmt.Sprintf("state: workset %q: nparts must be >= 1, got %d", name, nparts))
	}
	return &Workset[T]{name: name, parts: make([][]T, nparts)}
}

// Add appends an item to partition p. Each dataflow sink task appends
// only to its own partition, so no locking is required.
func (w *Workset[T]) Add(p int, item T) {
	w.parts[p] = append(w.parts[p], item)
}

// Len returns the total number of items.
func (w *Workset[T]) Len() int {
	n := 0
	for _, p := range w.parts {
		n += len(p)
	}
	return n
}

// Items returns partition p's items; the caller must not modify them.
func (w *Workset[T]) Items(p int) []T { return w.parts[p] }

// ClearAll empties every partition.
func (w *Workset[T]) ClearAll() {
	for p := range w.parts {
		w.ClearPartition(p)
	}
}

// ClearPartition empties partition p (the crash of its owner).
func (w *Workset[T]) ClearPartition(p int) {
	w.parts[p] = nil
}

// Swap exchanges the contents of two worksets (current vs next).
func (w *Workset[T]) Swap(other *Workset[T]) { w.parts, other.parts = other.parts, w.parts }

// EncodeTo appends the workset to an existing gob stream.
func (w *Workset[T]) EncodeTo(enc *gob.Encoder) error {
	if err := enc.Encode(w.name); err != nil {
		return fmt.Errorf("state: encoding workset %q: %v", w.name, err)
	}
	if err := enc.Encode(w.parts); err != nil {
		return fmt.Errorf("state: encoding workset %q: %v", w.name, err)
	}
	return nil
}

// DecodeFrom reads the workset from an existing gob stream
// (counterpart of EncodeTo).
func (w *Workset[T]) DecodeFrom(dec *gob.Decoder) error {
	var name string
	if err := dec.Decode(&name); err != nil {
		return fmt.Errorf("state: decoding workset: %v", err)
	}
	if name != w.name {
		return fmt.Errorf("state: decoding workset: snapshot is of %q, want %q", name, w.name)
	}
	var parts [][]T
	if err := dec.Decode(&parts); err != nil {
		return fmt.Errorf("state: decoding workset %q: %v", w.name, err)
	}
	if len(parts) != len(w.parts) {
		return fmt.Errorf("state: decoding workset %q: snapshot has %d partitions, workset has %d",
			w.name, len(parts), len(w.parts))
	}
	w.parts = parts
	return nil
}
