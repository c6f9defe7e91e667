// Columnar exchange batches: the typed counterpart of the pooled
// *[]any boxed batches. A ColBatch carries parallel key/value columns
// (dense int32 vertex indices plus a numeric payload), so a record on
// the columnar path costs two array slots instead of an interface
// allocation. Ownership follows the boxed rules (DESIGN.md §2.1/§2.6):
// a batch has one owner at a time, and the pool's put recycles it —
// using a batch after that is a use-after-free caught by deepvet's
// poolescape analysis, which covers these types alongside *[]any.
package exec

import "sync"

// ColValue is the payload universe of the columnar path: the numeric
// types graph supersteps exchange (labels, distances, rank mass).
// Arbitrary record types stay on the boxed path, and so do named types
// derived from these three: the byte views switch on the ground type.
type ColValue interface {
	int64 | uint64 | float64
}

// KeyCol is a borrowed column of dense vertex indices handed to
// operator callbacks. Like boxed []any group views, it aliases
// engine-owned scratch that is overwritten after the callback returns:
// callbacks must consume it in place and must not retain, re-slice and
// store, or send it (enforced by optiflow-vet's poolescape rule).
type KeyCol []int32

// ValCol is the borrowed payload column parallel to a KeyCol. The same
// no-retention rules apply.
type ValCol[V ColValue] []V

// DefaultColBatchSize is the rows-per-batch granularity of columnar
// exchanges. Columnar rows are 12 bytes, so batches are larger than the
// boxed default.
const DefaultColBatchSize = 1024

// ColBatch is one pooled columnar exchange batch: Dst[i] is the dense
// index of the destination vertex of row i, Val[i] its payload.
type ColBatch[V ColValue] struct {
	Dst KeyCol
	Val ValCol[V]
}

// Len returns the number of rows in the batch.
func (b *ColBatch[V]) Len() int { return len(b.Dst) }

// colPool recycles columnar batches for one engine, mirroring the
// boxed engine's batch pool.
type colPool[V ColValue] struct {
	once sync.Once
	pool *sync.Pool
}

func (p *colPool[V]) init(batchSize int) {
	p.once.Do(func() {
		p.pool = &sync.Pool{New: func() any {
			return &ColBatch[V]{
				Dst: make(KeyCol, 0, batchSize),
				Val: make(ValCol[V], 0, batchSize),
			}
		}}
	})
}

// get returns an empty batch with at least batchSize capacity.
func (p *colPool[V]) get(batchSize int) *ColBatch[V] {
	bp := p.pool.Get().(*ColBatch[V])
	if cap(bp.Dst) < batchSize {
		bp.Dst = make(KeyCol, 0, batchSize)
		bp.Val = make(ValCol[V], 0, batchSize)
	}
	bp.Dst = bp.Dst[:0]
	bp.Val = bp.Val[:0]
	return bp
}

// put recycles a batch. The caller must not touch bp afterwards.
func (p *colPool[V]) put(bp *ColBatch[V]) {
	p.pool.Put(bp)
}
