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
	"math"

	"optiflow/internal/colbytes"
)

// valBits returns v's 64-bit wire pattern. ColValue admits the three
// ground types only, so the switch is exhaustive and small enough to
// inline.
func valBits[V ColValue](v V) uint64 {
	switch x := any(v).(type) {
	case int64:
		return uint64(x)
	case uint64:
		return x
	}
	return math.Float64bits(any(v).(float64))
}

// bitsVal is valBits's inverse.
func bitsVal[V ColValue](u uint64) V {
	var v V
	switch p := any(&v).(type) {
	case *int64:
		*p = int64(u)
	case *uint64:
		*p = u
	case *float64:
		*p = math.Float64frombits(u)
	}
	return v
}

// AppendVal appends v's 64-bit wire pattern to dst as one colbytes U64.
func AppendVal[V ColValue](dst []byte, v V) []byte { return colbytes.AppendU64(dst, valBits(v)) }

// ReadVal reads a value AppendVal wrote.
func ReadVal[V ColValue](r *colbytes.Reader) V { return bitsVal[V](r.U64()) }

// AppendColumns appends the batch's key and value columns to dst as
// colbytes segments. The view copies the data out, so the batch can
// be recycled immediately after.
func (b *ColBatch[V]) AppendColumns(dst []byte) []byte {
	dst = colbytes.AppendI32s(dst, []int32(b.Dst))
	switch vs := any(b.Val).(type) {
	case ValCol[uint64]:
		return colbytes.AppendU64s(dst, vs)
	case ValCol[float64]:
		return colbytes.AppendF64s(dst, vs)
	}
	dst = colbytes.AppendU32(dst, uint32(len(b.Val)))
	for _, v := range b.Val {
		dst = colbytes.AppendU64(dst, valBits(v))
	}
	return dst
}

// ReadColumns replaces the batch's contents from a view written by
// AppendColumns, reusing the batch's column capacity. Failures —
// truncation, a corrupt count, mismatched column lengths — poison the
// Reader (check r.Err()); the batch's contents are unspecified after
// a failed read, matching the pooled get-then-fill discipline.
func (b *ColBatch[V]) ReadColumns(r *colbytes.Reader) {
	b.Dst = KeyCol(r.I32s([]int32(b.Dst[:0])))
	switch vs := any(&b.Val).(type) {
	case *ValCol[uint64]:
		*vs = ValCol[uint64](r.U64s([]uint64((*vs)[:0])))
	case *ValCol[float64]:
		*vs = ValCol[float64](r.F64s([]float64((*vs)[:0])))
	default:
		b.Val = b.Val[:0]
		n := int(r.U32())
		raw := r.Raw(8*n, "column batch values")
		if raw == nil {
			return
		}
		if cap(b.Val) < n {
			b.Val = make(ValCol[V], n)
		} else {
			b.Val = b.Val[:n]
		}
		for i := range b.Val {
			b.Val[i] = bitsVal[V](binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	if r.Err() == nil && len(b.Dst) != len(b.Val) {
		r.Fail("column batch: key/value columns have different lengths")
	}
}
