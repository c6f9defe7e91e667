// Columnar batch byte views: flat colbytes export/import for ColBatch,
// the layout the raw wire path (DESIGN.md §2.9) speaks. A batch
// serialises as two colbytes columns — the key column as i32s, the
// value column as 64-bit little-endian patterns (integer payloads as
// their two's-complement/unsigned bits, float payloads as IEEE-754
// bits) — so the view is byte-identical for every ColValue
// instantiation with equal bit patterns, and a spilled or shipped
// batch can be decoded without reflection.
package exec

import (
	"encoding/binary"
	"slices"

	"optiflow/internal/colbytes"
)

// AppendVals appends the 64-bit wire patterns of vals to dst, with no
// count: integer payloads as their two's-complement/unsigned bits,
// float payloads as IEEE-754 bits. It switches on the column type once
// and grows dst once. ColValue admits the three ground types only, so
// the switch is exhaustive.
func AppendVals[V ColValue](dst []byte, vals []V) []byte {
	switch vs := any(vals).(type) {
	case []uint64:
		return colbytes.AppendU64Vals(dst, vs)
	case []float64:
		return colbytes.AppendF64Vals(dst, vs)
	}
	dst = slices.Grow(dst, 8*len(vals))
	for _, v := range any(vals).([]int64) {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// ReadVals fills vals with the next len(vals) values AppendVals wrote,
// or poisons r and leaves vals as they were.
func ReadVals[V ColValue](r *colbytes.Reader, vals []V) {
	switch vs := any(vals).(type) {
	case []uint64:
		r.U64Vals(vs)
	case []float64:
		r.F64Vals(vs)
	case []int64:
		if raw := r.Raw(8*len(vs), "i64 values"); raw != nil {
			for i := range vs {
				vs[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	}
}

// AppendColumns appends the batch's key and value columns to dst as
// colbytes segments. The view copies the data out, so the batch can
// be recycled immediately after.
func (b *ColBatch[V]) AppendColumns(dst []byte) []byte {
	dst = colbytes.AppendI32s(dst, []int32(b.Dst))
	return AppendVals(colbytes.AppendU32(dst, uint32(len(b.Val))), []V(b.Val))
}

// ReadColumns replaces the batch's contents from a view written by
// AppendColumns, reusing the batch's column capacity. Failures —
// truncation, a corrupt count, mismatched column lengths — poison the
// Reader (check r.Err()); the batch's contents are unspecified after
// a failed read, matching the pooled get-then-fill discipline.
func (b *ColBatch[V]) ReadColumns(r *colbytes.Reader) {
	b.Dst = KeyCol(r.I32s([]int32(b.Dst[:0])))
	b.Val = b.Val[:0]
	n := int(r.U32())
	if r.Err() != nil {
		return
	}
	if 8*n > r.Remaining() {
		r.Fail("column batch values")
		return
	}
	b.Val = slices.Grow(b.Val, n)[:n]
	ReadVals(r, []V(b.Val))
	if r.Err() == nil && len(b.Dst) != len(b.Val) {
		r.Fail("column batch: key/value columns have different lengths")
	}
}
