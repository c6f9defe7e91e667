package exec

import (
	"errors"
	"testing"

	"optiflow/internal/colbytes"
)

// colWireBatch builds a small batch for the given payload maker.
func colWireBatch[V ColValue](n int, val func(i int) V) *ColBatch[V] {
	b := &ColBatch[V]{}
	for i := 0; i < n; i++ {
		b.Dst, b.Val = append(b.Dst, int32(i*3)), append(b.Val, val(i))
	}
	return b
}

func roundTripCols[V ColValue](t *testing.T, src *ColBatch[V]) *ColBatch[V] {
	t.Helper()
	view := src.AppendColumns(nil)
	dst := &ColBatch[V]{}
	r := colbytes.NewReader(view)
	dst.ReadColumns(r)
	if err := r.Err(); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(dst.Dst) != len(src.Dst) {
		t.Fatalf("round-trip: %d rows, want %d", len(dst.Dst), len(src.Dst))
	}
	for i := range src.Dst {
		if dst.Dst[i] != src.Dst[i] || dst.Val[i] != src.Val[i] {
			t.Fatalf("row %d: got (%d, %v), want (%d, %v)", i, dst.Dst[i], dst.Val[i], src.Dst[i], src.Val[i])
		}
	}
	return dst
}

func TestColBatchViewRoundTrip(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		roundTripCols(t, colWireBatch(100, func(i int) uint64 { return uint64(i) * 7 }))
	})
	t.Run("float64", func(t *testing.T) {
		roundTripCols(t, colWireBatch(100, func(i int) float64 { return 1 / float64(i+1) }))
	})
	t.Run("int64", func(t *testing.T) {
		roundTripCols(t, colWireBatch(100, func(i int) int64 { return int64(50 - i) }))
	})
	t.Run("empty", func(t *testing.T) {
		roundTripCols(t, &ColBatch[uint64]{})
	})
}

// TestColBatchViewLayoutStable pins that the int64 slow path and the
// uint64 fast path emit the same bytes for the same bit patterns —
// the view's layout must not depend on which instantiation wrote it.
func TestColBatchViewLayoutStable(t *testing.T) {
	a := colWireBatch(32, func(i int) uint64 { return uint64(i) })
	b := colWireBatch(32, func(i int) int64 { return int64(i) })
	if string(a.AppendColumns(nil)) != string(b.AppendColumns(nil)) {
		t.Fatal("uint64 and int64 views of identical bit patterns differ")
	}
}

func TestColBatchViewTruncation(t *testing.T) {
	view := colWireBatch(16, func(i int) uint64 { return uint64(i) }).AppendColumns(nil)
	for cut := 0; cut < len(view); cut++ {
		var dst ColBatch[uint64]
		r := colbytes.NewReader(view[:cut])
		dst.ReadColumns(r)
		if !errors.Is(r.Err(), colbytes.ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

// TestColBatchViewLengthMismatch pins the parallel-column invariant:
// a view whose key and value columns disagree must be rejected.
func TestColBatchViewLengthMismatch(t *testing.T) {
	view := colbytes.AppendI32s(nil, []int32{1, 2, 3})
	view = colbytes.AppendU64s(view, []uint64{10, 20})
	var dst ColBatch[uint64]
	r := colbytes.NewReader(view)
	dst.ReadColumns(r)
	if r.Err() == nil {
		t.Fatal("mismatched column lengths were not rejected")
	}
}
