// Columnar superstep engine: a vectorized execution path for the
// restricted pipeline shape every graph superstep in this repo shares —
//
//	source rows -> CSR edge expansion -> hash exchange -> monotone fold -> apply
//
// Records never exist individually: edges are iterated as contiguous
// slices of the graph's dense CSR arrays, and the fold scatters into
// dense scratch. Run executes a whole superstep inline on the caller's
// goroutine, partitions in ascending order, folding each message where
// it is emitted, so it needs no exchange at all. The hosted halves
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
	"math/bits"
	"time"

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
	// ExpandMulScale sends val * Scale[edge] for a caller-provided
	// per-edge scale column (PageRank: weight / total outgoing weight).
	ExpandMulScale
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
	// Scale is the per-edge scale column for ExpandMulScale, parallel
	// to Adj.Targets.
	Scale []float64
	// Fold selects the per-destination fold.
	Fold FoldKind
	// LocalFold folds each source partition's messages on their own
	// before the exchange (the columnar combiner), shrinking shuffle
	// volume to at most one row per (producer, destination) pair: one
	// per destination some message reached, in ascending destination
	// order. It selects Run's path only: the hosted halves always fold
	// locally.
	LocalFold bool
	// Source emits partition part's input rows. emit returns false once
	// a scheduled fault has struck; Source must stop then. Rows are
	// (dense source vertex index, payload).
	Source func(part int, emit func(src int32, val V) bool) error
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
	// Local-fold scratch of the partition being expanded: lacc is all
	// zeros and lseen all false between expansions, after a fault too.
	// A local fold marks lseen for every destination it reaches, and
	// emitFolded finds them by their marks.
	lacc  []V
	lseen []bool
	run   colRun[V]
	// emit is run.row, emitSum run.rowSum and emitMin run.rowMin, bound
	// once so an expansion allocates nothing.
	emit, emitSum, emitMin func(src int32, val V) bool
}

// colRun is the state of one run — Run or a hosted half.
type colRun[V ColValue] struct {
	e     *ColEngine[V]
	step  *ColStep[V]
	batch int
	fault *FaultInjection
	// sink, when set, is lent every flushed batch (see expandHalf);
	// otherwise flushed batches fold into the fold scratch.
	sink func(src, dst int, b *ColBatch[V])
	// The step's partition map and CSR offsets, loaded once per run
	// rather than once per row.
	partOf, offsets []int32
	// part is the partition being expanded.
	part int

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
		e.lacc, e.lseen = make([]V, nv), make([]bool, nv)
	}
	if e.emit == nil {
		e.emit, e.emitSum, e.emitMin = e.run.row, e.run.rowSum, e.run.rowMin
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
	if step.Expand == ExpandMulScale && len(step.Scale) != len(step.Adj.Targets) {
		return nil, fmt.Errorf("col: Scale column has %d entries, adjacency has %d edges", len(step.Scale), len(step.Adj.Targets))
	}
	batch := e.BatchSize
	if batch <= 0 {
		batch = DefaultColBatchSize
	}
	e.pool.init(batch)
	e.ensureScratch(step, local)
	e.run = colRun[V]{
		e: e, step: step, batch: batch, fault: fi,
		partOf: step.Parts.PartOf, offsets: step.Adj.Offsets,
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
// thus a function of the input. A fault counts emitted messages row by
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
	emit := e.emit
	switch {
	case step.LocalFold:
	case step.Fold == FoldSum:
		emit = e.emitSum
	default:
		emit = e.emitMin
	}
	for part := 0; part < e.Parallelism && r.err == nil; part++ {
		r.expand(part, emit, step.LocalFold)
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
// LocalFold says: the exchange is sink, which is lent every flushed
// batch of folded rows and must copy what it keeps — the batch is
// recycled when sink returns.
func (e *ColEngine[V]) expandHalf(step *ColStep[V], parts []int, sink func(src, dst int, b *ColBatch[V])) (ColStats, error) {
	start := time.Now()
	r, err := e.newRun(step, nil, true)
	if err != nil {
		return ColStats{}, err
	}
	r.sink = sink
	for _, part := range parts {
		if r.expand(part, e.emit, true); r.err != nil {
			return ColStats{}, r.err
		}
	}
	return r.stats(start), nil
}

// foldHalf runs only the consuming half, for the listed partitions, one
// after another: the exchange is next, which fills the pooled batch it
// is lent with partition part's next incoming batch, or reports that
// there is none left. Each batch is folded as soon as next fills it, in
// the order next yields them, so a deterministic next gives
// bit-identical float sums.
func (e *ColEngine[V]) foldHalf(step *ColStep[V], parts []int, next func(part int, b *ColBatch[V]) (bool, error)) error {
	r, err := e.newRun(step, nil, false)
	if err != nil {
		return err
	}
	if step.Fold == FoldSum {
		clear(e.acc)
	}
	for _, part := range parts {
		for more := true; more && r.err == nil; {
			bp := e.pool.get(r.batch)
			if more, err = next(part, bp); err != nil {
				r.fail(fmt.Errorf("col: exchange into partition %d: %w", part, err))
			} else if more {
				r.fold(bp.Dst, bp.Val)
			}
			e.pool.put(bp)
		}
		if r.err == nil {
			r.applyFolded(part)
		}
		if r.err != nil {
			clear(e.reached)
			return r.err
		}
	}
	return nil
}

// expand is the producing half of partition part: it pulls source rows
// and walks their CSR edge ranges (emit: row, or Run's rowSum or
// rowMin), then,
// if local, sends the locally folded rows on (emitFolded).
func (r *colRun[V]) expand(part int, emit func(src int32, val V) bool, local bool) {
	r.part = part
	if err := r.step.Source(part, emit); err != nil {
		r.fail(fmt.Errorf("col: source for partition %d: %w", part, err))
	}
	if local {
		r.emitFolded()
	}
}

// emitFolded sends a producing partition's locally folded rows on, one
// destination partition d after another: it walks Parts.Owned[d], which
// is ascending, pushes every vertex a message reached straight into d's
// batch and resets the scratch, to false and 0, as it goes — so the
// exchange byte stream is a function of the input. A row is written
// whether or not lseen marks it and kept only if it does, so the walk
// does not branch on lseen. After a fault it only resets.
func (r *colRun[V]) emitFolded() {
	e := r.e
	lacc, lseen := e.lacc, e.lseen
	if r.err != nil {
		clear(lacc)
		clear(lseen)
		return
	}
	for d, owned := range r.step.Parts.Owned {
		bp := e.pool.get(r.batch)
		dst, val, n := bp.Dst[:r.batch], bp.Val[:r.batch], 0
		for _, v := range owned {
			dst[n], val[n] = v, lacc[v]
			if lseen[v] {
				n++
			}
			lseen[v], lacc[v] = false, 0
			if n == r.batch {
				r.flushFolded(d, bp, n)
				bp = e.pool.get(r.batch)
				dst, val, n = bp.Dst[:r.batch], bp.Val[:r.batch], 0
			}
		}
		r.flushFolded(d, bp, n)
	}
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

// clock counts the messages of a source row with edges lo..hi — the
// fault's clock — and reports false once a scheduled fault has struck.
func (r *colRun[V]) clock(lo, hi int32) bool {
	r.messages += int64(hi - lo)
	if f := r.fault; f != nil && r.messages > f.AfterRecords {
		r.fail(&WorkerFailure{Workers: f.Workers, Partitions: f.Partitions, Processed: r.messages})
		return false
	}
	return true
}

// rowSum and rowMin are Run's emits without LocalFold: they count one
// source row's messages and fold them straight into the fold scratch
// (sumFold, minFold).
func (r *colRun[V]) rowSum(src int32, val V) bool {
	lo, hi := r.offsets[src], r.offsets[src+1]
	if !r.clock(lo, hi) {
		return false
	}
	sumFold(r.step, r.e.acc, lo, hi, val)
	return true
}

func (r *colRun[V]) rowMin(src int32, val V) bool {
	lo, hi := r.offsets[src], r.offsets[src+1]
	if !r.clock(lo, hi) {
		return false
	}
	minFold(r.step, r.e.acc, r.e.reached, lo, hi, val)
	return true
}

// row is the emit of a local fold: it counts one source row's messages
// and folds them into the local-fold scratch (localFold).
func (r *colRun[V]) row(src int32, val V) bool {
	lo, hi := r.offsets[src], r.offsets[src+1]
	if !r.clock(lo, hi) {
		return false
	}
	localFold(r.step, r.e.lacc, r.e.lseen, lo, hi, val)
	return true
}

// edgeCols returns the targets of a source row's edges lo..hi and the
// per-edge operand, nil when every edge sends the returned val: an
// unweighted ExpandAddWeight is ExpandCopy of val+1.
func edgeCols[V ColValue](s *ColStep[V], lo, hi int32, val V) ([]int32, []float64, V) {
	switch {
	case s.Expand == ExpandMulScale:
		return s.Adj.Targets[lo:hi], s.Scale[lo:hi], val
	case s.Expand == ExpandAddWeight && s.Adj.Weights != nil:
		return s.Adj.Targets[lo:hi], s.Adj.Weights[lo:hi], val
	case s.Expand == ExpandAddWeight:
		return s.Adj.Targets[lo:hi], nil, val + V(1)
	}
	return s.Adj.Targets[lo:hi], nil, val
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

// sumFold adds the messages a source row sends along its edges lo..hi
// into Run's zeroed fold scratch, and minFold selects them into it
// (firstLess) and marks reached. Neither branches on a mark or lists a
// destination; the separate loops per ExpandKind keep the per-edge path
// free of a switch and an indirect call.
func sumFold[V ColValue](s *ColStep[V], acc []V, lo, hi int32, val V) {
	targets, col, val := edgeCols(s, lo, hi, val)
	switch {
	case col == nil:
		for _, dst := range targets {
			acc[dst] += val
		}
	case s.Expand == ExpandAddWeight:
		for j, dst := range targets {
			acc[dst] += val + V(col[j])
		}
	default:
		for j, dst := range targets {
			acc[dst] += val * V(col[j])
		}
	}
}

func minFold[V ColValue](s *ColStep[V], acc []V, reached []byte, lo, hi int32, val V) {
	targets, col, val := edgeCols(s, lo, hi, val)
	switch {
	case col == nil:
		for _, dst := range targets {
			acc[dst], reached[dst] = firstLess(acc[dst], val, reached[dst] != 0), 1
		}
	case s.Expand == ExpandAddWeight:
		for j, dst := range targets {
			acc[dst], reached[dst] = firstLess(acc[dst], val+V(col[j]), reached[dst] != 0), 1
		}
	default:
		for j, dst := range targets {
			acc[dst], reached[dst] = firstLess(acc[dst], val*V(col[j]), reached[dst] != 0), 1
		}
	}
}

// localFold folds the messages one source row sends along its edges
// lo..hi into a producing partition's local-fold scratch and marks each
// destination in seen, without a branch on the mark: a sum adds into
// the zeroed scratch, a min selects (firstLess).
func localFold[V ColValue](s *ColStep[V], acc []V, seen []bool, lo, hi int32, val V) {
	targets, col, val := edgeCols(s, lo, hi, val)
	min := s.Fold == FoldMin
	switch {
	case col == nil && min:
		for _, dst := range targets {
			acc[dst], seen[dst] = firstLess(acc[dst], val, seen[dst]), true
		}
	case col == nil:
		for _, dst := range targets {
			acc[dst] += val
			seen[dst] = true
		}
	case s.Expand == ExpandAddWeight && min:
		for j, dst := range targets {
			acc[dst], seen[dst] = firstLess(acc[dst], val+V(col[j]), seen[dst]), true
		}
	case s.Expand == ExpandAddWeight:
		for j, dst := range targets {
			acc[dst] += val + V(col[j])
			seen[dst] = true
		}
	case min:
		for j, dst := range targets {
			acc[dst], seen[dst] = firstLess(acc[dst], val*V(col[j]), seen[dst]), true
		}
	default:
		for j, dst := range targets {
			acc[dst] += val * V(col[j])
			seen[dst] = true
		}
	}
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
	reached, acc, partOf, next := e.reached, e.acc, r.partOf, e.next
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
