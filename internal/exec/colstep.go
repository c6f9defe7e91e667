// Columnar superstep engine: a vectorized execution path for the
// restricted pipeline shape every graph superstep in this repo shares —
//
//	source rows -> CSR edge expansion -> hash exchange -> monotone fold -> apply
//
// Records never exist individually: a partition's source rows arrive as
// two borrowed columns, each row's edges are a contiguous slice of the
// graph's dense CSR arrays, and the fold scatters into dense scratch, a
// partition at a time in one loop per fold and edge operand. Run
// executes a whole superstep inline on the caller's goroutine,
// partitions in ascending order, folding each message where it is
// expanded, so it needs no exchange at all. The hosted halves
// (colhosted.go) cut the same superstep at the exchange, where each
// producing partition's locally folded rows travel as parallel int32/V
// columns in pooled ColBatch batches, grouped by destination partition
// with a walk of the partition's owned vertices (no per-message
// hashing). The boxed dataflow engine remains the fully general path;
// ColEngine exists for the numeric-payload supersteps where boxing
// dominated the profile.
package exec

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// FoldKind selects the fold applied to messages with the same
// destination. Both folds are commutative and associative over the
// payload domain (min exactly, sum up to float rounding), which is what
// makes pre-exchange local folding legal; the engine fixes the order
// anyway, so float sums repeat bit for bit.
type FoldKind int

const (
	// FoldMin keeps the minimum payload per destination (CC labels,
	// SSSP distances), the first of equal ones. It folds without a
	// branch into a dense column that marks the destinations reached,
	// and Apply sees only those.
	FoldMin FoldKind = iota
	// FoldSum accumulates payloads per destination (PageRank mass),
	// densely, for a bulk iteration: Apply sees every vertex the
	// partition owns, one no message reached as +0. A sum starts at +0,
	// so a lone −0 message folds to +0 — under LocalFold already in the
	// producer's local sum, so it crosses the exchange as +0.
	FoldSum
)

// ExpandKind selects how a source row (src, val) turns into one message
// per out-edge of src.
type ExpandKind int

const (
	// ExpandCopy sends val unchanged to every neighbor (CC label
	// diffusion).
	ExpandCopy ExpandKind = iota
	// ExpandAddWeight sends val + edge weight (SSSP relaxation).
	// Unweighted graphs use weight 1.
	ExpandAddWeight
	// ExpandMulWeight sends val * edge weight (PageRank, whose Source
	// has divided each rank by the row's total outgoing weight).
	// Unweighted graphs use weight 1, so it sends val unchanged.
	ExpandMulWeight
)

// ColStep describes one columnar superstep over a graph.
type ColStep[V ColValue] struct {
	// Adj is the dense CSR adjacency messages expand over.
	Adj *graph.Dense
	// Parts is the vertex partitioning; Parts.N must equal the
	// engine's parallelism.
	Parts *graph.Partitioning
	// Expand selects the per-edge message function.
	Expand ExpandKind
	// Fold selects the per-destination fold.
	Fold FoldKind
	// LocalFold folds each source partition's messages on their own
	// before the exchange (the columnar combiner), shrinking shuffle
	// volume to at most one row per (producer, destination) pair: one
	// per destination some message reached, in ascending destination
	// order. It selects Run's path only: the hosted halves always fold
	// locally.
	LocalFold bool
	// Source returns partition part's input rows as two parallel
	// columns of equal length, dense source vertex indices and
	// payloads, which the engine expands row by row in order. Both are
	// borrowed: the engine only reads them, and only until it calls
	// Source again, so Source may hand out its own state or refill one
	// scratch every call. Each row's messages are counted before the
	// fault clock is checked, so a scheduled fault strikes at the first
	// row whose messages take the count past
	// FaultInjection.AfterRecords, before that row is folded.
	Source func(part int) (KeyCol, ValCol[V])
	// Apply receives the folded updates owned by partition part, with
	// destinations in ascending dense-index order, each once: under
	// FoldMin the destinations some message reached, under FoldSum all
	// of Parts.Owned[part], which dst then is. dst and val are borrowed
	// read-only columns: consume in place, do not retain.
	Apply func(part int, dst KeyCol, val ValCol[V]) error
}

// ColStats reports what a columnar superstep did.
type ColStats struct {
	// Messages counts edge-expansion emissions (the paper's "messages"
	// statistic), before any local fold.
	Messages int64
	// Shuffled counts rows that actually crossed the exchange — equal
	// to Messages unless LocalFold compacted them.
	Shuffled int64
	// Elapsed is the wall time of the superstep.
	Elapsed time.Duration
}

// ColEngine executes columnar supersteps over a fixed number of
// partitions. An engine owns pooled exchange batches and persistent fold
// scratch, so a converging iterative job reaches a steady state where a
// superstep allocates nothing. Everything runs on the caller's
// goroutine, so Source and Apply do too, and a panic in either reaches
// the caller. Run may not be called concurrently on one engine
// (iteration drivers are sequential); distinct engines are independent.
type ColEngine[V ColValue] struct {
	// Parallelism is the number of partitions and must match the step's
	// partitioning. Must be >= 1.
	Parallelism int
	// BatchSize overrides rows per exchange batch
	// (DefaultColBatchSize when zero).
	BatchSize int

	pool colPool[V]

	// Fold scratch, indexed by global dense vertex index and shared by
	// all partitions, since a vertex has one owner. A sum zeroes acc and
	// adds every message. A min selects into acc (firstLess) and marks
	// the destination in reached — one byte per vertex, padded to a
	// multiple of eight, all zero between runs — so an entry no message
	// reached is never read. outDst and outVal are the columns Apply is
	// handed: under FoldMin partition p's is a window of
	// len(Parts.Owned[p]), the windows laid end to end, which
	// gatherReached fills up to next[p]; under FoldSum one partition's
	// values at a time.
	acc     []V
	reached []byte
	outDst  []int32
	outVal  []V
	next    []int
	// Local-fold scratch of the partition being expanded: lacc and lseen
	// are all zeros between expansions, after a fault too. A local fold
	// marks lseen for every destination it reaches, and emitFolded finds
	// them by their marks.
	lacc  []V
	lseen []byte
	run   colRun[V]
}

// colRun is the state of one run — Run or a hosted half.
type colRun[V ColValue] struct {
	e     *ColEngine[V]
	step  *ColStep[V]
	batch int
	fault *FaultInjection
	// limit is the fault's AfterRecords, the largest count without one.
	limit int64
	// sink, when set, is lent every flushed batch (see expandHalf);
	// otherwise flushed batches fold into the fold scratch.
	sink func(src, dst int, b *ColBatch[V])
	// part is the partition being expanded.
	part int
	// cols reads the peer columns being folded (foldColumns); a field,
	// so that the reader the decode is lent needs no allocation.
	cols colbytes.Reader

	err                error
	messages, shuffled int64
}

// fail records the first error; the run stops at the next check.
func (r *colRun[V]) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// flushTo hands batch bp, which partition src filled for partition dst,
// to the exchange — lent to the run's sink, or folded into the fold
// scratch — and recycles it.
func (r *colRun[V]) flushTo(src, dst int, bp *ColBatch[V]) {
	if r.sink != nil {
		r.sink(src, dst, bp)
	} else {
		r.fold(bp.Dst, bp.Val)
	}
	r.e.pool.put(bp)
}

// ensureScratch sizes the engine's persistent scratch for step —
// marks and out columns for all its vertices under FoldMin, out values
// for its largest partition under FoldSum, and the local-fold scratch
// if local — reusing prior arrays when they fit.
func (e *ColEngine[V]) ensureScratch(step *ColStep[V], local bool) {
	nv, out := step.Adj.NumVertices(), 0
	if len(e.acc) != nv {
		e.acc = make([]V, nv)
	}
	if step.Fold == FoldMin {
		if len(e.outDst) != nv {
			e.reached, e.outDst = make([]byte, (nv+7)&^7), make([]int32, nv)
		}
		out = nv
	}
	for _, owned := range step.Parts.Owned {
		out = max(out, len(owned))
	}
	if len(e.outVal) < out {
		e.outVal = make([]V, out)
	}
	if len(e.next) != step.Parts.N {
		e.next = make([]int, step.Parts.N)
	}
	if local && len(e.lacc) != nv {
		e.lacc, e.lseen = make([]V, nv), make([]byte, nv)
	}
}

// newRun validates the step against the engine, sizes the pooled
// batches and the scratch — the local-fold scratch too if local — and
// resets e.run for a run of step: the set-up Run and the two hosted
// halves share.
func (e *ColEngine[V]) newRun(step *ColStep[V], fi *FaultInjection, local bool) (*colRun[V], error) {
	if e.Parallelism < 1 {
		e.Parallelism = 1
	}
	if step.Adj == nil || step.Parts == nil || step.Source == nil || step.Apply == nil {
		return nil, fmt.Errorf("col: step needs Adj, Parts, Source and Apply")
	}
	if step.Parts.N != e.Parallelism {
		return nil, fmt.Errorf("col: partitioning has %d partitions, engine parallelism is %d", step.Parts.N, e.Parallelism)
	}
	batch := e.BatchSize
	if batch <= 0 {
		batch = DefaultColBatchSize
	}
	e.pool.init(batch)
	e.ensureScratch(step, local)
	e.run = colRun[V]{e: e, step: step, batch: batch, fault: fi, limit: math.MaxInt64}
	if fi != nil {
		e.run.limit = fi.AfterRecords
	}
	return &e.run, nil
}

// Run executes one columnar superstep inline, optionally with a
// scheduled fault (nil for a clean run). It expands the partitions in
// ascending order, folding every row straight into the fold scratch —
// under LocalFold each partition folds on its own and its partial
// results merge in ascending source order, as the hosted halves'
// exchange does — then hands each partition's folded updates to Apply,
// again in ascending order. The fold order, float sums included, is
// thus a function of the input. A fault counts expanded messages row by
// row and strikes during expansion, before any Apply: a faulted run
// returns a *WorkerFailure and no stats, having written nothing, and
// the engine is reusable for the retry.
func (e *ColEngine[V]) Run(step *ColStep[V], fi *FaultInjection) (ColStats, error) {
	start := time.Now()
	r, err := e.newRun(step, fi, step.LocalFold)
	if err != nil {
		return ColStats{}, err
	}
	if step.Fold == FoldSum {
		clear(e.acc)
	}
	for part := 0; part < e.Parallelism && r.err == nil; part++ {
		r.expand(part, step.LocalFold)
	}
	if !step.LocalFold {
		r.shuffled = r.messages
	}
	if r.err == nil {
		r.applyFolded(-1)
	}
	if r.err != nil {
		clear(e.reached)
		return ColStats{}, r.err
	}
	return r.stats(start), nil
}

func (r *colRun[V]) stats(start time.Time) ColStats {
	return ColStats{Messages: r.messages, Shuffled: r.shuffled, Elapsed: time.Since(start)}
}

// expandHalf runs only the producing half, for the listed partitions,
// one after another, folding each on its own whatever the step's
// LocalFold says, optionally with a scheduled fault as Run has: the
// exchange is sink, which is lent every flushed batch of folded rows
// and must copy what it keeps — the batch is recycled when sink
// returns.
func (e *ColEngine[V]) expandHalf(step *ColStep[V], parts []int, fi *FaultInjection, sink func(src, dst int, b *ColBatch[V])) (ColStats, error) {
	start := time.Now()
	r, err := e.newRun(step, fi, true)
	if err != nil {
		return ColStats{}, err
	}
	r.sink = sink
	for _, part := range parts {
		if r.expand(part, true); r.err != nil {
			return ColStats{}, r.err
		}
	}
	return r.stats(start), nil
}

// foldHalf runs only the consuming half, for the listed partitions, one
// after another: the exchange is into, which folds every row bound for
// partition part through r (r.fold) and fails if one of them is bad,
// before the partition is applied. A deterministic into gives
// bit-identical float sums.
func (e *ColEngine[V]) foldHalf(step *ColStep[V], parts []int, into func(part int, r *colRun[V]) error) error {
	r, err := e.newRun(step, nil, false)
	if err != nil {
		return err
	}
	if step.Fold == FoldSum {
		clear(e.acc)
	}
	for _, part := range parts {
		if err := into(part, r); err != nil {
			r.fail(fmt.Errorf("col: exchange into partition %d: %w", part, err))
		} else {
			r.applyFolded(part)
		}
		if r.err != nil {
			clear(e.reached)
			return r.err
		}
	}
	return nil
}

// expand is the producing half of partition part: it takes the
// partition's source columns and folds their messages (foldRows) into
// the fold scratch — or, if local, into the local-fold scratch, whose
// rows it then sends on (emitFolded) — and strikes the scheduled fault
// once the count of messages passes it.
func (r *colRun[V]) expand(part int, local bool) {
	e, s := r.e, r.step
	r.part = part
	idx, val := s.Source(part)
	acc, marks := e.acc, e.reached
	if local {
		acc, marks = e.lacc, e.lseen
	} else if s.Fold == FoldSum {
		marks = nil
	}
	if len(val) != len(idx) {
		r.fail(fmt.Errorf("col: source for partition %d: %d vertices, %d values", part, len(idx), len(val)))
	} else if r.messages = foldRows(s, idx, val, acc, marks, r.messages, r.limit); r.messages > r.limit {
		f := r.fault
		r.fail(&WorkerFailure{Workers: f.Workers, Partitions: f.Partitions, Processed: r.messages})
	}
	if local {
		r.emitFolded()
	}
}

// emitFolded sends a producing partition's locally folded rows on, one
// destination partition d after another: it walks Parts.Owned[d], which
// is ascending, and pushes every vertex a message reached straight into
// d's batch — so the exchange byte stream is a function of the input. A
// row is written whether or not lseen marks it and kept only if it
// does, so the walk does not branch on lseen. The walk leaves the
// scratch as it found it; both columns are cleared in bulk afterwards,
// and after a fault without a walk.
func (r *colRun[V]) emitFolded() {
	e := r.e
	lacc, lseen := e.lacc, e.lseen
	if r.err == nil {
		for d, owned := range r.step.Parts.Owned {
			bp := e.pool.get(r.batch)
			dst, val, n := bp.Dst[:r.batch], bp.Val[:r.batch], 0
			for _, v := range owned {
				dst[n], val[n] = v, lacc[v]
				n += int(lseen[v])
				if n == r.batch {
					r.flushFolded(d, bp, n)
					bp = e.pool.get(r.batch)
					dst, val, n = bp.Dst[:r.batch], bp.Val[:r.batch], 0
				}
			}
			r.flushFolded(d, bp, n)
		}
	}
	clear(lacc)
	clear(lseen)
}

// flushFolded hands the first n rows emitFolded wrote into bp to
// partition d's exchange, or recycles bp when it holds none.
func (r *colRun[V]) flushFolded(d int, bp *ColBatch[V], n int) {
	if n == 0 {
		r.e.pool.put(bp)
		return
	}
	bp.Dst, bp.Val = bp.Dst[:n], bp.Val[:n]
	r.shuffled += int64(n)
	r.flushTo(r.part, d, bp)
}

// firstLess is the min fold's select: v where no message reached the
// slot yet (seen false; the slot's value is stale or zero) or where v
// is strictly less than a, else a — so the first of equal values stays,
// −0 before +0 or after. On integers the two ifs compile to conditional
// moves, not branches.
func firstLess[V ColValue](a, v V, seen bool) V {
	if !seen {
		a = v
	}
	if v < a {
		a = v
	}
	return a
}

// foldRows folds the messages of the source rows idx, val into acc, row
// by row, and returns m plus the rows' message count. A row's messages
// are counted first: the rows stop at the first that takes the count
// past limit, before it is folded. A min selects each message into acc
// (firstLess) and marks its destination in marks; a sum adds it, and
// marks it too unless marks is nil (Run's direct sum, which needs no
// marks). Each fold has one loop per edge operand — the row's value, for
// ExpandCopy and on an unweighted graph, plus one for ExpandAddWeight;
// else the edge weight added or multiplied — so the per-edge path has no
// switch and no call.
func foldRows[V ColValue](s *ColStep[V], idx KeyCol, val ValCol[V], acc []V, marks []byte, m, limit int64) int64 {
	off, targets, w := s.Adj.Offsets, s.Adj.Targets, s.Adj.Weights
	if s.Expand == ExpandCopy {
		w = nil
	}
	plusOne, add := s.Expand == ExpandAddWeight && w == nil, s.Expand == ExpandAddWeight
	val = val[:len(idx)]
	switch {
	case s.Fold == FoldMin && w == nil:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v := val[i]
			if plusOne {
				v++
			}
			for _, d := range targets[lo:hi] {
				acc[d], marks[d] = firstLess(acc[d], v, marks[d] != 0), 1
			}
		}
	case s.Fold == FoldMin && add:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v, ws := val[i], w[lo:hi]
			for j, d := range targets[lo:hi] {
				acc[d], marks[d] = firstLess(acc[d], v+V(ws[j]), marks[d] != 0), 1
			}
		}
	case s.Fold == FoldMin:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v, ws := val[i], w[lo:hi]
			for j, d := range targets[lo:hi] {
				acc[d], marks[d] = firstLess(acc[d], v*V(ws[j]), marks[d] != 0), 1
			}
		}
	case marks == nil && w == nil:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v := val[i]
			if plusOne {
				v++
			}
			for _, d := range targets[lo:hi] {
				acc[d] += v
			}
		}
	case marks == nil && add:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v, ws := val[i], w[lo:hi]
			for j, d := range targets[lo:hi] {
				acc[d] += v + V(ws[j])
			}
		}
	case marks == nil:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v, ws := val[i], w[lo:hi]
			for j, d := range targets[lo:hi] {
				acc[d] += v * V(ws[j])
			}
		}
	case w == nil:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v := val[i]
			if plusOne {
				v++
			}
			for _, d := range targets[lo:hi] {
				acc[d] += v
				marks[d] = 1
			}
		}
	case add:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v, ws := val[i], w[lo:hi]
			for j, d := range targets[lo:hi] {
				acc[d] += v + V(ws[j])
				marks[d] = 1
			}
		}
	default:
		for i, src := range idx {
			lo, hi := off[src], off[src+1]
			if m += int64(hi - lo); m > limit {
				return m
			}
			v, ws := val[i], w[lo:hi]
			for j, d := range targets[lo:hi] {
				acc[d] += v * V(ws[j])
				marks[d] = 1
			}
		}
	}
	return m
}

// fold folds the rows of one exchange batch into the fold scratch.
func (r *colRun[V]) fold(dsts []int32, vals []V) {
	acc, reached := r.e.acc, r.e.reached
	vals = vals[:len(dsts)]
	if r.step.Fold == FoldSum {
		for i, dst := range dsts {
			acc[dst] += vals[i]
		}
		return
	}
	for i, dst := range dsts {
		acc[dst], reached[dst] = firstLess(acc[dst], vals[i], reached[dst] != 0), 1
	}
}

// applyFolded hands the folded updates of partition part — of every
// partition in ascending order if part is -1 — to the step's Apply, with
// destinations in ascending dense-index order, which is ascending
// VertexID, so Apply sees updates in a deterministic order: under
// FoldSum every vertex the partition owns, under FoldMin those marked
// reached (gatherReached).
func (r *colRun[V]) applyFolded(part int) {
	e, s, acc := r.e, r.step, r.e.acc
	min := s.Fold == FoldMin
	if min {
		r.gatherReached()
	}
	for p, at := 0, 0; p < s.Parts.N && r.err == nil; p++ {
		owned := s.Parts.Owned[p]
		start := at
		at += len(owned)
		if part >= 0 && p != part {
			continue
		}
		dst, val := KeyCol(owned), ValCol[V](e.outVal[:len(owned)])
		if min {
			dst, val = e.outDst[start:e.next[p]], e.outVal[start:e.next[p]]
		} else {
			for i, d := range owned {
				val[i] = acc[d]
			}
		}
		if err := s.Apply(p, dst, val); err != nil {
			r.fail(fmt.Errorf("col: apply for partition %d: %w", p, err))
		}
	}
}

// gatherReached moves every vertex marked reached, and its folded
// value, into its partition's window of the out columns, in ascending
// order, and unmarks it. It reads the marks eight at a time, so a
// sparse step's unreached stretches cost one load per eight vertices,
// and each reached vertex one turn of a loop without a data-dependent
// branch.
func (r *colRun[V]) gatherReached() {
	e := r.e
	reached, acc, partOf, next := e.reached, e.acc, r.step.Parts.PartOf, e.next
	for p, at := 0, 0; p < len(next); p++ {
		next[p], at = at, at+len(r.step.Parts.Owned[p])
	}
	for i := 0; i < len(reached); i += 8 {
		// One load of eight marks: the compiler merges the shifts, which
		// binary.LittleEndian.Uint64 would not be inlined into a generic
		// instantiation to do.
		m := (*[8]byte)(reached[i:])
		w := uint64(m[0]) | uint64(m[1])<<8 | uint64(m[2])<<16 | uint64(m[3])<<24 |
			uint64(m[4])<<32 | uint64(m[5])<<40 | uint64(m[6])<<48 | uint64(m[7])<<56
		if w == 0 {
			continue
		}
		*m = [8]byte{}
		for ; w != 0; w &= w - 1 {
			d := int32(i + bits.TrailingZeros64(w)>>3)
			p := partOf[d]
			k := next[p]
			e.outDst[k], e.outVal[k] = d, acc[d]
			next[p] = k + 1
		}
	}
}
