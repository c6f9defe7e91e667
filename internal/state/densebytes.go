package state

import (
	"errors"
	"fmt"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// Partition byte views: the one encoding of DenseStore and ColWorkset
// state. A view is the dense column itself, dumped in slot order — a
// u32 slot count, one presence byte per slot, then the present values
// encoded by a caller-supplied column codec, one call per run of
// present slots. Slot order is VertexID order by construction, so two
// stores over the same partitioning produce byte-identical views for
// equal contents. Hosted jobs ship
// these views as worker state (DESIGN.md §2.9); the columnar jobs'
// checkpoint blobs are the same views behind ViewTag.

// ViewTag is the format byte every checkpoint blob of the columnar
// jobs starts with. A gob stream's first byte is a message length —
// below 0x80, or 0xF8 and up for a long one — so a blob written by the
// gob codec these views replaced fails ReadView instead of being
// misparsed.
const ViewTag byte = 0xB7

// ReadView runs read over blob after its format tag. A blob without
// the tag, a read error and bytes left after read all fail, with an
// error that names job.
func ReadView(job string, blob []byte, read func(*colbytes.Reader) error) error {
	err := errNotView
	if len(blob) > 0 && blob[0] == ViewTag {
		r := colbytes.NewReader(blob[1:])
		if err = read(r); err == nil {
			if err = r.Err(); err == nil && r.Remaining() != 0 {
				err = fmt.Errorf("state: %d trailing bytes after the view", r.Remaining())
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%s: restoring snapshot: %w", job, err)
	}
	return nil
}

var errNotView = errors.New("state: blob is not a partition byte view")

// ReadPartitions reads a view's u32 partition count, checks it
// against n, and calls read for each partition in order.
func ReadPartitions(r *colbytes.Reader, n int, read func(p int) error) error {
	if got := r.U32(); r.Err() == nil && int(got) != n {
		return fmt.Errorf("state: view has %d partitions, want %d", got, n)
	}
	for p := 0; p < n && r.Err() == nil; p++ {
		if err := read(p); err != nil {
			return err
		}
	}
	return r.Err()
}

// AppendPartitionBytes appends partition p's columns to dst, encoding
// each run of present values with one call of enc, which appends a
// column of values with no count. It never fails: the view is complete
// by construction.
func (s *DenseStore[V]) AppendPartitionBytes(dst []byte, p int, enc func([]byte, []V) []byte) []byte {
	has := s.has[p]
	dst = colbytes.AppendBools(colbytes.AppendU32(dst, uint32(len(has))), has)
	vals := s.vals[p]
	for lo, hi := presentRun(has, 0); lo < len(has); lo, hi = presentRun(has, hi) {
		dst = enc(dst, vals[lo:hi])
	}
	return dst
}

// presentRun returns the first run of present slots at or after from:
// has[lo:hi] all true, lo = len(has) if there is none.
func presentRun(has []bool, from int) (lo, hi int) {
	for lo = from; lo < len(has) && !has[lo]; lo++ {
	}
	for hi = lo; hi < len(has) && has[hi]; hi++ {
	}
	return lo, hi
}

// RestorePartitionBytes replaces partition p's contents from a view
// written by AppendPartitionBytes, decoding each run of present values
// with one call of dec, which fills a column from r. The slot count is
// validated against the partitioning up front, and decoded columns are
// installed only after the whole view parses, so a truncated or
// misrouted view fails without half-applying. A
// successful restore unshares the partition, bumps its version, and
// marks it clean.
func (s *DenseStore[V]) RestorePartitionBytes(p int, r *colbytes.Reader, dec func(*colbytes.Reader, []V)) error {
	n, err := s.readSlotCount(p, r)
	if err != nil {
		return err
	}
	vals := make([]V, n)
	has := make([]bool, n)
	count := 0
	for slot, b := range r.Raw(n, "presence") {
		if b != 0 {
			has[slot] = true
			count++
		}
	}
	for lo, hi := presentRun(has, 0); lo < n && r.Err() == nil; lo, hi = presentRun(has, hi) {
		dec(r, vals[lo:hi])
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("state: restoring store %q partition %d: %w", s.name, p, err)
	}
	s.vals[p] = vals
	s.has[p] = has
	s.shared[p] = false
	s.count[p] = count
	s.bump(p)
	s.markCleared(p)
	return nil
}

// readSlotCount reads a view's u32 slot count and checks it against
// partition p's, so a misrouted view fails before anything is
// allocated.
func (s *DenseStore[V]) readSlotCount(p int, r *colbytes.Reader) (int, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("state: restoring store %q partition %d: %w", s.name, p, err)
	}
	if n != len(s.pt.Owned[p]) {
		return 0, fmt.Errorf("state: restoring store %q partition %d: view has %d slots, partition owns %d",
			s.name, p, n, len(s.pt.Owned[p]))
	}
	return n, nil
}

// RestorePartitionView is RestorePartitionBytes over a view that must
// hold exactly one partition: trailing bytes are an error too.
func (s *DenseStore[V]) RestorePartitionView(p int, view []byte, dec func(*colbytes.Reader, []V)) error {
	r := colbytes.NewReader(view)
	if err := s.RestorePartitionBytes(p, r, dec); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("state: restoring store %q partition %d: %d trailing bytes", s.name, p, r.Remaining())
	}
	return nil
}

// AppendDeltaBytes appends partition p's changes since the last
// MarkClean to dst: a cleared flag, then the full view of a cleared
// partition, or else the slot count, the number of dirty slots and the
// dirty slots in slot order as (u32 slot, value) pairs, each value
// encoded by enc as a column of one. Only SetSlot, SetIdx and WriteAll
// mark a slot dirty, and they leave it present, so a delta never
// deletes.
func (s *DenseStore[V]) AppendDeltaBytes(dst []byte, p int, enc func([]byte, []V) []byte) []byte {
	dst = colbytes.AppendBool(dst, s.cleared[p])
	if s.cleared[p] {
		return s.AppendPartitionBytes(dst, p, enc)
	}
	dst = colbytes.AppendU32(dst, uint32(len(s.dirty[p])))
	dst = colbytes.AppendU32(dst, uint32(s.dirtyCount[p]))
	for slot, dirty := range s.dirty[p] {
		if dirty {
			dst = colbytes.AppendU32(dst, uint32(slot))
			dst = enc(dst, s.vals[p][slot:slot+1])
		}
	}
	return dst
}

// RestoreDeltaBytes replays one partition's changes written by
// AppendDeltaBytes. Slots must ascend; like RestorePartitionBytes,
// nothing is applied unless the whole section parses.
func (s *DenseStore[V]) RestoreDeltaBytes(p int, r *colbytes.Reader, dec func(*colbytes.Reader, []V)) error {
	if r.Bool() {
		return s.RestorePartitionBytes(p, r, dec)
	}
	owned, err := s.readSlotCount(p, r)
	if err != nil {
		return err
	}
	n := int(r.U32())
	if n > owned || 4*n > r.Remaining() {
		return fmt.Errorf("state: delta of store %q partition %d: %d changes in %d bytes, partition owns %d slots",
			s.name, p, n, r.Remaining(), owned)
	}
	slots, vals := make([]uint32, n), make([]V, n)
	for i := 0; i < n; i++ {
		slots[i] = r.U32()
		if dec(r, vals[i:i+1]); r.Err() != nil {
			break
		}
		if int(slots[i]) >= owned || (i > 0 && slots[i] <= slots[i-1]) {
			return fmt.Errorf("state: delta of store %q partition %d: slot %d out of order or range", s.name, p, slots[i])
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("state: delta of store %q partition %d: %w", s.name, p, err)
	}
	s.unshare(p)
	for i, slot := range slots {
		if !s.has[p][slot] {
			s.has[p][slot] = true
			s.count[p]++
		}
		s.vals[p][slot] = vals[i]
	}
	s.bump(p)
	return nil
}

// AppendPartitionBytes appends workset partition p to dst as an i32
// index column and a u32 count followed by the value column, which enc
// encodes in one call — the layout of exec.ColBatch.AppendColumns.
func (w *ColWorkset[V]) AppendPartitionBytes(dst []byte, p int, enc func([]byte, []V) []byte) []byte {
	dst = colbytes.AppendI32s(dst, w.idx[p])
	return enc(colbytes.AppendU32(dst, uint32(len(w.val[p]))), w.val[p])
}

// RestorePartitionBytes replaces workset partition p from a view
// written by AppendPartitionBytes. Every index must name a vertex that
// pt assigns to p; the columns are installed, as fresh arrays, only
// after the whole view parses.
func (w *ColWorkset[V]) RestorePartitionBytes(p int, r *colbytes.Reader, dec func(*colbytes.Reader, []V), pt *graph.Partitioning) error {
	idx := r.I32s(nil)
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("state: restoring workset %q partition %d: %w", w.name, p, err)
	}
	if n != len(idx) {
		return fmt.Errorf("state: restoring workset %q partition %d: %d indices, %d values", w.name, p, len(idx), n)
	}
	for _, i := range idx {
		if i < 0 || int(i) >= len(pt.PartOf) || int(pt.PartOf[i]) != p {
			return fmt.Errorf("state: restoring workset %q partition %d: vertex %d is not in the partition", w.name, p, i)
		}
	}
	val := make([]V, n)
	dec(r, val)
	if err := r.Err(); err != nil {
		return fmt.Errorf("state: restoring workset %q partition %d: %w", w.name, p, err)
	}
	w.idx[p], w.val[p], w.shared[p] = idx, val, false
	w.bump(p)
	return nil
}
