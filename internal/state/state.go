// Package state holds the partitioned intermediate state of an
// iterative computation: the solution set / rank vector partitions that
// live on cluster workers across supersteps, and the worksets of delta
// iterations. Failures destroy partitions of these stores (§2.2 of the
// paper); recovery policies snapshot, restore, clear and compensate
// them.
package state

import (
	"encoding/gob"
	"fmt"
	"sort"

	"optiflow/internal/graph"
)

// Store is a keyed store hash-partitioned into nparts partitions with
// the same partitioning function the dataflow engine uses for hash
// exchanges, so the task at partition p only ever touches parts[p] and
// no locking is needed during a superstep. It holds the state of the
// exec.Engine jobs (vertexcentric, als, kmeans), which snapshot it whole
// with EncodeTo.
type Store[V any] struct {
	name  string
	parts []map[uint64]V
}

// NewStore creates an empty store with nparts partitions.
func NewStore[V any](name string, nparts int) *Store[V] {
	if nparts < 1 {
		panic(fmt.Sprintf("state: store %q: nparts must be >= 1, got %d", name, nparts))
	}
	s := &Store[V]{name: name, parts: make([]map[uint64]V, nparts)}
	for i := range s.parts {
		s.parts[i] = make(map[uint64]V)
	}
	return s
}

// PartitionOf returns the partition owning key k.
func (s *Store[V]) PartitionOf(k uint64) int {
	return graph.Partition(graph.VertexID(k), len(s.parts))
}

// Get returns the value stored under k.
func (s *Store[V]) Get(k uint64) (V, bool) {
	v, ok := s.parts[s.PartitionOf(k)][k]
	return v, ok
}

// Put stores v under k in the partition owning k.
func (s *Store[V]) Put(k uint64, v V) { s.parts[s.PartitionOf(k)][k] = v }

// ClearPartition drops every entry of partition p — the effect of the
// worker owning p crashing.
func (s *Store[V]) ClearPartition(p int) {
	s.parts[p] = make(map[uint64]V)
}

// ClearAll drops every entry of every partition.
func (s *Store[V]) ClearAll() {
	for p := range s.parts {
		s.ClearPartition(p)
	}
}

// Range calls fn for every entry, partition by partition, in sorted key
// order within each partition (deterministic). fn returning false stops
// the iteration.
func (s *Store[V]) Range(fn func(k uint64, v V) bool) {
	for p := range s.parts {
		if !s.RangePartition(p, fn) {
			return
		}
	}
}

// RangePartition iterates partition p in sorted key order. It reports
// whether iteration ran to completion.
func (s *Store[V]) RangePartition(p int, fn func(k uint64, v V) bool) bool {
	part := s.parts[p]
	keys := make([]uint64, 0, len(part))
	for k := range part {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !fn(k, part[k]) {
			return false
		}
	}
	return true
}

// partPairs is the serialised form of one partition: keys in ascending
// order with their values aligned. Encoding sorted pairs instead of the
// map makes snapshots byte-deterministic — two encodes of equal state
// produce identical bytes, which the restore-equivalence tests and the
// checkpoint commit protocol rely on.
type partPairs[V any] struct {
	Keys []uint64
	Vals []V
}

func (s *Store[V]) pairs(p int) partPairs[V] {
	part := s.parts[p]
	pp := partPairs[V]{Keys: make([]uint64, 0, len(part))}
	for k := range part {
		pp.Keys = append(pp.Keys, k)
	}
	sort.Slice(pp.Keys, func(i, j int) bool { return pp.Keys[i] < pp.Keys[j] })
	pp.Vals = make([]V, len(pp.Keys))
	for i, k := range pp.Keys {
		pp.Vals[i] = part[k]
	}
	return pp
}

func (pp partPairs[V]) toMap() map[uint64]V {
	m := make(map[uint64]V, len(pp.Keys))
	for i, k := range pp.Keys {
		m[k] = pp.Vals[i]
	}
	return m
}

// EncodeTo appends the store to an existing gob stream, so that a job
// snapshot can serialise several stores into one checkpoint.
func (s *Store[V]) EncodeTo(enc *gob.Encoder) error {
	if err := enc.Encode(s.name); err != nil {
		return fmt.Errorf("state: encoding store %q: %v", s.name, err)
	}
	parts := make([]partPairs[V], len(s.parts))
	for p := range s.parts {
		parts[p] = s.pairs(p)
	}
	if err := enc.Encode(parts); err != nil {
		return fmt.Errorf("state: encoding store %q: %v", s.name, err)
	}
	return nil
}

// DecodeFrom reads the store from an existing gob stream (counterpart
// of EncodeTo).
func (s *Store[V]) DecodeFrom(dec *gob.Decoder) error {
	var name string
	if err := dec.Decode(&name); err != nil {
		return fmt.Errorf("state: decoding store: %v", err)
	}
	if name != s.name {
		return fmt.Errorf("state: decoding store: snapshot is of %q, want %q", name, s.name)
	}
	var parts []partPairs[V]
	if err := dec.Decode(&parts); err != nil {
		return fmt.Errorf("state: decoding store %q: %v", s.name, err)
	}
	if len(parts) != len(s.parts) {
		return fmt.Errorf("state: decoding store %q: snapshot has %d partitions, store has %d",
			s.name, len(parts), len(s.parts))
	}
	for p, pp := range parts {
		s.parts[p] = pp.toMap()
	}
	return nil
}

// TableView adapts one partition to the dataflow Table interface for
// lookup joins. The view is read-only by convention: lookup tasks must
// not mutate the store mid-superstep.
type TableView[V any] struct {
	part map[uint64]V
}

// Get implements dataflow.Table.
func (t TableView[V]) Get(key uint64) (any, bool) {
	v, ok := t.part[key]
	if !ok {
		return nil, false
	}
	return v, true
}

// Table returns the Table view of partition p.
func (s *Store[V]) Table(p int) TableView[V] {
	return TableView[V]{part: s.parts[p]}
}
