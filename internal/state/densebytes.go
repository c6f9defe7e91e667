package state

import (
	"fmt"

	"optiflow/internal/colbytes"
)

// Partition byte views: the flat colbytes counterpart of the gob
// sorted-pair codec (EncodePartition / DecodePartition). The gob form
// pays a key lookup per entry and reflection per message; the byte
// view is the dense column itself, dumped in slot order — a u32 slot
// count, one presence byte per slot, then the present values encoded
// by a caller-supplied element codec. Slot order is VertexID order by
// construction, so two stores over the same partitioning produce
// byte-identical views for equal contents. The raw wire path
// (DESIGN.md §2.9) uses the same layout discipline for migrated
// partition state.

// AppendPartitionBytes appends partition p's columns to dst, encoding
// each present value with enc. It never fails: the view is complete
// by construction.
func (s *DenseStore[V]) AppendPartitionBytes(dst []byte, p int, enc func([]byte, V) []byte) []byte {
	has := s.has[p]
	dst = colbytes.AppendU32(dst, uint32(len(has)))
	for _, h := range has {
		dst = colbytes.AppendBool(dst, h)
	}
	vals := s.vals[p]
	for slot, h := range has {
		if h {
			dst = enc(dst, vals[slot])
		}
	}
	return dst
}

// RestorePartitionBytes replaces partition p's contents from a view
// written by AppendPartitionBytes, decoding each present value with
// dec. The slot count is validated against the partitioning up front,
// and decoded columns are installed only after the whole view parses,
// so a truncated or misrouted view fails without half-applying. Like
// DecodePartition, a successful restore unshares the partition, bumps
// its version, and marks it clean.
func (s *DenseStore[V]) RestorePartitionBytes(p int, r *colbytes.Reader, dec func(*colbytes.Reader) V) error {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("state: restoring store %q partition %d: %v", s.name, p, err)
	}
	if n != len(s.pt.Owned[p]) {
		return fmt.Errorf("state: restoring store %q partition %d: view has %d slots, partition owns %d",
			s.name, p, n, len(s.pt.Owned[p]))
	}
	vals := make([]V, n)
	has := make([]bool, n)
	count := 0
	for slot := 0; slot < n; slot++ {
		if r.Bool() {
			has[slot] = true
			count++
		}
	}
	for slot := 0; slot < n; slot++ {
		if has[slot] {
			vals[slot] = dec(r)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("state: restoring store %q partition %d: %v", s.name, p, err)
	}
	s.vals[p] = vals
	s.has[p] = has
	s.shared[p] = false
	s.count[p] = count
	s.bump(p)
	s.markCleared(p)
	return nil
}

// RestorePartitionView is RestorePartitionBytes over a view that must
// hold exactly one partition: trailing bytes are an error too.
func (s *DenseStore[V]) RestorePartitionView(p int, view []byte, dec func(*colbytes.Reader) V) error {
	r := colbytes.NewReader(view)
	if err := s.RestorePartitionBytes(p, r, dec); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("state: restoring store %q partition %d: %d trailing bytes", s.name, p, r.Remaining())
	}
	return nil
}
