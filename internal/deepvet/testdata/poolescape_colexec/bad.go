// Package fixture seeds poolescape violations for pooled columnar
// batches inside the engine: uses of a *ColBatch after put/send handed
// it away, plus the two direct escapes (package-level store, exported
// return). The types are local doubles of internal/exec's — the
// analysis matches pooled columnar batches by name and declaring
// package, so the fixture stays self-contained like the *[]any one
// (the engine's pool plumbing is unexported).
package fixture

import "sync"

type KeyCol []int32

type ColBatch[V int64 | uint64 | float64] struct {
	Dst KeyCol
	Val []V
}

type colRun struct{ pool sync.Pool }

func (r *colRun) putColBatch(bp *ColBatch[uint64]) { r.pool.Put(bp) }

func (r *colRun) getColBatch() *ColBatch[uint64] {
	bp := r.pool.Get().(*ColBatch[uint64])
	return bp // unexported: batches may flow inside the engine
}

var colLeak *ColBatch[uint64]

func useAfterPut(r *colRun, bp *ColBatch[uint64]) int {
	r.putColBatch(bp)
	return len(bp.Dst) // use after recycle
}

func useAfterSend(ch chan *ColBatch[uint64], bp *ColBatch[uint64]) int {
	ch <- bp
	return len(bp.Dst) // use after the receiver took ownership
}

func conditional(r *colRun, bp *ColBatch[uint64], flush bool) int {
	if flush {
		r.putColBatch(bp)
	}
	return len(bp.Dst) // consumed on the flush path
}

func storeGlobal(bp *ColBatch[uint64]) {
	colLeak = bp // package-level store
}

func Exported(bp *ColBatch[uint64]) *ColBatch[uint64] {
	return bp // pooled batch crossing the exported API
}

// flushRebind is the columnar flusher idiom: send, then rebind to a
// fresh batch before touching the variable again.
func flushRebind(r *colRun, ch chan *ColBatch[uint64], bp *ColBatch[uint64]) int {
	ch <- bp
	bp = r.getColBatch()
	n := len(bp.Dst)
	r.putColBatch(bp)
	return n
}

// drainLoop is the folder's drain idiom: each iteration binds a fresh
// batch; recycling at the end of the body is legal.
func drainLoop(r *colRun, ch chan *ColBatch[uint64]) int {
	n := 0
	for bp := range ch {
		n += len(bp.Dst)
		r.putColBatch(bp)
	}
	return n
}

// lendThenRecycle is the hosted exchange's sink idiom. Clean.
func lendThenRecycle(r *colRun, bp *ColBatch[uint64], sink func(*ColBatch[uint64])) {
	sink(bp)
	r.putColBatch(bp)
}

// recycleThenLend lends the callback a batch the pool already owns.
func recycleThenLend(r *colRun, bp *ColBatch[uint64], sink func(*ColBatch[uint64])) {
	r.putColBatch(bp)
	sink(bp) // use after recycle
}
