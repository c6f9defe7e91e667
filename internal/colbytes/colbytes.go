// Package colbytes is the low-level byte codec shared by the columnar
// wire format, the exec column batch export views and the dense state
// store byte views: fixed-width little-endian scalars and
// length-prefixed column segments, written with append-style helpers
// and read back with a sticky-error Reader.
//
// A column segment is a uint32 element count followed by the elements
// as fixed-width little-endian values. The Reader validates every
// count against the bytes actually remaining BEFORE allocating, so a
// corrupt or adversarial count cannot drive an unbounded allocation —
// the decode fails with ErrTruncated instead.
package colbytes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated reports a read past the end of the buffer — a corrupt
// length, a truncated frame, or a count larger than the remaining
// payload.
var ErrTruncated = errors.New("colbytes: truncated input")

// AppendU8 appends one byte.
func AppendU8(dst []byte, v byte) []byte { return append(dst, v) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendF64 appends a float64 as its IEEE-754 bit pattern,
// little-endian. Exact: NaN payloads, signed zeros and subnormals all
// survive the round trip.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a uint32 byte length followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendU64s appends a uint64 column segment: uint32 count, then the
// values.
func AppendU64s(dst []byte, col []uint64) []byte {
	return AppendU64Vals(AppendU32(dst, uint32(len(col))), col)
}

// AppendU32s appends a uint32 column segment.
func AppendU32s(dst []byte, col []uint32) []byte {
	dst = AppendU32(dst, uint32(len(col)))
	for _, v := range col {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// AppendI32s appends an int32 column segment (two's-complement bits).
func AppendI32s(dst []byte, col []int32) []byte {
	dst = AppendU32(dst, uint32(len(col)))
	for _, v := range col {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// AppendF64s appends a float64 column segment (IEEE-754 bits).
func AppendF64s(dst []byte, col []float64) []byte {
	return AppendF64Vals(AppendU32(dst, uint32(len(col))), col)
}

// AppendU64Vals appends col's values with no count — the body of a
// U64s segment — growing dst once. The appends then never reallocate,
// and an append loop compiles tighter than indexed stores.
func AppendU64Vals(dst []byte, col []uint64) []byte {
	dst = slices.Grow(dst, 8*len(col))
	for _, v := range col {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// AppendF64Vals appends col's IEEE-754 bit patterns with no count — the
// body of an F64s segment — growing dst once.
func AppendF64Vals(dst []byte, col []float64) []byte {
	dst = slices.Grow(dst, 8*len(col))
	for _, v := range col {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendBools appends col as one byte (0 or 1) per element, with no
// count, growing dst once.
func AppendBools(dst []byte, col []bool) []byte {
	dst = slices.Grow(dst, len(col))
	for _, v := range col {
		dst = AppendBool(dst, v)
	}
	return dst
}

// Reader consumes a byte buffer front to back with a sticky error:
// after the first failed read every further read returns zero values,
// so a decode sequence can run unchecked and test Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader aliases b — the caller
// must not recycle b until decoding (including any column reads, which
// copy) is complete.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.b) }

// fail records the first error.
func (r *Reader) fail(context string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", context, ErrTruncated)
	}
}

// Fail lets a caller validating higher-level invariants (a count
// header describing more elements than remain, say) poison the reader
// with a truncation error of its own.
func (r *Reader) Fail(context string) { r.fail(context) }

// take consumes n bytes, or fails.
func (r *Reader) take(n int, context string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(context)
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 from its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a uint32-length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

// colLen reads and validates a column count against the remaining
// bytes at the given element width, so the caller can allocate safely.
func (r *Reader) colLen(width int, context string) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n*width > len(r.b) {
		r.fail(context)
		return 0
	}
	return n
}

// Raw consumes n bytes and returns them without copying. The returned
// slice aliases the Reader's buffer, so the caller must finish with it
// (or copy) before the buffer is recycled — decoders use it to run one
// tight fixed-width loop over a whole column instead of paying the
// Reader's per-element bookkeeping. Returns nil (and poisons the
// Reader) if fewer than n bytes remain.
func (r *Reader) Raw(n int, context string) []byte {
	return r.take(n, context)
}

// U64s reads a uint64 column segment, appending to dst (pass nil for
// a fresh slice, or a truncated slice to reuse capacity).
func (r *Reader) U64s(dst []uint64) []uint64 {
	n := r.colLen(8, "u64 column")
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	if r.err == nil {
		r.b = r.b[8*n:]
	}
	return dst
}

// U32s reads a uint32 column segment, appending to dst.
func (r *Reader) U32s(dst []uint32) []uint32 {
	n := r.colLen(4, "u32 column")
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(r.b[4*i:]))
	}
	if r.err == nil {
		r.b = r.b[4*n:]
	}
	return dst
}

// I32s reads an int32 column segment, appending to dst.
func (r *Reader) I32s(dst []int32) []int32 {
	n := r.colLen(4, "i32 column")
	for i := 0; i < n; i++ {
		dst = append(dst, int32(binary.LittleEndian.Uint32(r.b[4*i:])))
	}
	if r.err == nil {
		r.b = r.b[4*n:]
	}
	return dst
}

// F64s reads a float64 column segment, appending to dst.
func (r *Reader) F64s(dst []float64) []float64 {
	n := r.colLen(8, "f64 column")
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:])))
	}
	if r.err == nil {
		r.b = r.b[8*n:]
	}
	return dst
}

// U64Vals fills dst with the next len(dst) values of a column body
// AppendU64Vals wrote, or fails and leaves dst as it was.
func (r *Reader) U64Vals(dst []uint64) {
	if b := r.take(8*len(dst), "u64 values"); b != nil {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
}

// F64Vals fills dst with the next len(dst) values of a column body
// AppendF64Vals wrote, or fails and leaves dst as it was.
func (r *Reader) F64Vals(dst []float64) {
	if b := r.take(8*len(dst), "f64 values"); b != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}
