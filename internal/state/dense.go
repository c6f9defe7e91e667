package state

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"optiflow/internal/graph"
)

// DenseStore is the columnar counterpart of Store for state whose key
// domain is exactly the vertex set of a graph: each partition holds its
// values in a flat column indexed by the vertex's local slot (see
// graph.Partitioning.Slot), so the superstep hot path reads and writes
// array entries instead of hashing into maps. It supports the same
// recovery surface as Store — copy-on-write captures, per-partition
// versions, delta logs — and serialises to the identical wire format
// (name + sorted key/value pairs per partition), so checkpoints remain
// byte-deterministic and the async writer encodes the columns directly
// without re-boxing.
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

	// Delta-log tracking: per-slot dirty bits plus a distinct-dirty
	// counter, and the partition-wiped flag (see Store.EncodeDelta).
	dirty      [][]bool
	dirtyCount []int
	cleared    []bool

	// scratch[p] is refilled by every encode of partition p; gob copies
	// it out, so a snapshot allocates no pairs.
	scratch []partPairs[V]
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
		scratch:    make([]partPairs[V], pt.N),
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

// PartitionLen returns the number of present entries in partition p.
func (s *DenseStore[V]) PartitionLen(p int) int { return s.count[p] }

// unshare clones partition p's columns if a SnapshotShared capture
// aliases them, so in-place writes cannot be observed through the
// capture.
func (s *DenseStore[V]) unshare(p int) {
	if !s.shared[p] {
		return
	}
	s.vals[p] = append([]V(nil), s.vals[p]...)
	s.has[p] = append([]bool(nil), s.has[p]...)
	s.shared[p] = false
}

func (s *DenseStore[V]) bump(p int) { s.versions[p]++ }

// Version returns partition p's change counter (see Store.Version).
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
		scratch:    make([]partPairs[V], len(s.vals)),
	}
	for p := range s.vals {
		s.shared[p] = true
		c.shared[p] = true
		c.dirty[p] = make([]bool, len(s.dirty[p]))
	}
	return c
}

// CopyFrom replaces this store's contents with those of other.
func (s *DenseStore[V]) CopyFrom(other *DenseStore[V]) {
	if len(s.vals) != len(other.vals) {
		panic(fmt.Sprintf("state: CopyFrom: partition count mismatch %d != %d", len(s.vals), len(other.vals)))
	}
	for p := range s.vals {
		s.vals[p] = append([]V(nil), other.vals[p]...)
		s.has[p] = append([]bool(nil), other.has[p]...)
		s.shared[p] = false
		s.count[p] = other.count[p]
		s.bump(p)
		s.markCleared(p)
	}
}

// pairs serialises partition p in the exact partPairs form Store uses.
// Slots already ascend in key order, so no sort is needed — the encoder
// walks the columns once.
func (s *DenseStore[V]) pairs(p int) partPairs[V] {
	owned := s.pt.Owned[p]
	ids := s.d.IDs()
	pp := &s.scratch[p]
	pp.Keys, pp.Vals = slices.Grow(pp.Keys[:0], s.count[p]), slices.Grow(pp.Vals[:0], s.count[p])
	for slot, idx := range owned {
		if !s.has[p][slot] {
			continue
		}
		pp.Keys = append(pp.Keys, uint64(ids[idx]))
		pp.Vals = append(pp.Vals, s.vals[p][slot])
	}
	return *pp
}

// setPairs replaces partition p's contents from decoded pairs.
func (s *DenseStore[V]) setPairs(p int, pp partPairs[V]) error {
	n := len(s.pt.Owned[p])
	vals := make([]V, n)
	has := make([]bool, n)
	count := 0
	for i, k := range pp.Keys {
		idx, ok := s.d.IndexOf(graph.VertexID(k))
		if !ok || int(s.pt.PartOf[idx]) != p {
			return fmt.Errorf("state: decoding dense store %q: key %d does not belong to partition %d", s.name, k, p)
		}
		slot := s.pt.Slot[idx]
		vals[slot] = pp.Vals[i]
		has[slot] = true
		count++
	}
	s.vals[p] = vals
	s.has[p] = has
	s.shared[p] = false
	s.count[p] = count
	s.bump(p)
	s.markCleared(p)
	return nil
}

// Encode writes the store to w in gob encoding, for checkpointing.
func (s *DenseStore[V]) Encode(w io.Writer) error {
	return s.EncodeTo(gob.NewEncoder(w))
}

// EncodeTo appends the store to an existing gob stream. The bytes are
// identical to those of a map-based Store with equal contents.
func (s *DenseStore[V]) EncodeTo(enc *gob.Encoder) error {
	if err := enc.Encode(s.name); err != nil {
		return fmt.Errorf("state: encoding store %q: %v", s.name, err)
	}
	parts := make([]partPairs[V], len(s.vals))
	for p := range s.vals {
		parts[p] = s.pairs(p)
	}
	if err := enc.Encode(parts); err != nil {
		return fmt.Errorf("state: encoding store %q: %v", s.name, err)
	}
	return nil
}

// Decode replaces the store contents from a gob stream written by
// Encode (or by a map-based Store of the same name and layout).
func (s *DenseStore[V]) Decode(r io.Reader) error {
	return s.DecodeFrom(gob.NewDecoder(r))
}

// DecodeFrom reads the store from an existing gob stream.
func (s *DenseStore[V]) DecodeFrom(dec *gob.Decoder) error {
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
	if len(parts) != len(s.vals) {
		return fmt.Errorf("state: decoding store %q: snapshot has %d partitions, store has %d",
			s.name, len(parts), len(s.vals))
	}
	for p, pp := range parts {
		if err := s.setPairs(p, pp); err != nil {
			return err
		}
	}
	return nil
}

// EncodePartition appends one partition's contents to a gob stream in
// the same sorted-pair form as Store.EncodePartition.
func (s *DenseStore[V]) EncodePartition(p int, enc *gob.Encoder) error {
	if err := enc.Encode(s.pairs(p)); err != nil {
		return fmt.Errorf("state: encoding store %q partition %d: %v", s.name, p, err)
	}
	return nil
}

// DecodePartition replaces one partition's contents from a gob stream
// written by EncodePartition.
func (s *DenseStore[V]) DecodePartition(p int, dec *gob.Decoder) error {
	var pp partPairs[V]
	if err := dec.Decode(&pp); err != nil {
		return fmt.Errorf("state: decoding store %q partition %d: %v", s.name, p, err)
	}
	return s.setPairs(p, pp)
}

// DirtyCount returns how many entries changed since the last
// EncodeDelta or MarkClean (cleared partitions count their full size).
func (s *DenseStore[V]) DirtyCount() int {
	n := 0
	for p := range s.vals {
		if s.cleared[p] {
			n += s.count[p]
			continue
		}
		n += s.dirtyCount[p]
	}
	return n
}

// EncodeDelta appends the change set since the previous EncodeDelta in
// the same wire form as Store.EncodeDelta, then marks the store clean.
func (s *DenseStore[V]) EncodeDelta(enc *gob.Encoder) error {
	if err := enc.Encode(s.name); err != nil {
		return fmt.Errorf("state: encoding delta of %q: %v", s.name, err)
	}
	deltas := make([]partDelta[V], len(s.vals))
	for p := range s.vals {
		d := partDelta[V]{}
		switch {
		case s.cleared[p]:
			d.Cleared = true
			d.Upserts = make(map[uint64]V, s.count[p])
			s.RangePartition(p, func(k uint64, v V) bool {
				d.Upserts[k] = v
				return true
			})
		case s.dirtyCount[p] > 0:
			d.Upserts = make(map[uint64]V, s.dirtyCount[p])
			owned := s.pt.Owned[p]
			ids := s.d.IDs()
			for slot, isDirty := range s.dirty[p] {
				if !isDirty {
					continue
				}
				k := uint64(ids[owned[slot]])
				if s.has[p][slot] {
					d.Upserts[k] = s.vals[p][slot]
				} else {
					d.Deletes = append(d.Deletes, k)
				}
			}
		}
		deltas[p] = d
	}
	if err := enc.Encode(deltas); err != nil {
		return fmt.Errorf("state: encoding delta of %q: %v", s.name, err)
	}
	s.MarkClean()
	return nil
}

// ApplyDelta replays one change set written by EncodeDelta (of a dense
// or map-based store with this name and layout).
func (s *DenseStore[V]) ApplyDelta(dec *gob.Decoder) error {
	var name string
	if err := dec.Decode(&name); err != nil {
		return fmt.Errorf("state: decoding delta: %v", err)
	}
	if name != s.name {
		return fmt.Errorf("state: decoding delta: delta is of %q, want %q", name, s.name)
	}
	var deltas []partDelta[V]
	if err := dec.Decode(&deltas); err != nil {
		return fmt.Errorf("state: decoding delta of %q: %v", s.name, err)
	}
	if len(deltas) != len(s.vals) {
		return fmt.Errorf("state: delta of %q has %d partitions, store has %d", s.name, len(deltas), len(s.vals))
	}
	slotOf := func(p int, k uint64) (int32, error) {
		idx, ok := s.d.IndexOf(graph.VertexID(k))
		if !ok || int(s.pt.PartOf[idx]) != p {
			return 0, fmt.Errorf("state: delta of %q: key %d does not belong to partition %d", s.name, k, p)
		}
		return s.pt.Slot[idx], nil
	}
	for p, d := range deltas {
		if d.Cleared {
			s.ClearPartition(p)
		}
		if len(d.Upserts) > 0 || len(d.Deletes) > 0 {
			s.unshare(p)
			for k, v := range d.Upserts {
				slot, err := slotOf(p, k)
				if err != nil {
					return err
				}
				if !s.has[p][slot] {
					s.has[p][slot] = true
					s.count[p]++
				}
				s.vals[p][slot] = v
			}
			for _, k := range d.Deletes {
				slot, err := slotOf(p, k)
				if err != nil {
					return err
				}
				if s.has[p][slot] {
					s.has[p][slot] = false
					s.count[p]--
					var zero V
					s.vals[p][slot] = zero
				}
			}
		}
		s.bump(p)
	}
	return nil
}

// MarkClean forgets all recorded changes: the next EncodeDelta starts
// from here.
func (s *DenseStore[V]) MarkClean() {
	for p := range s.vals {
		for i := range s.dirty[p] {
			s.dirty[p][i] = false
		}
		s.dirtyCount[p] = 0
		s.cleared[p] = false
	}
}
