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
// (colhosted.go) cut the same superstep at the exchange, where messages
// travel as parallel int32/V columns in pooled ColBatch batches, routed
// by one array load into a precomputed partition map (no per-message
// hashing). The boxed dataflow engine remains the fully general path;
// ColEngine exists for the numeric-payload supersteps where boxing
// dominated the profile.
package exec

import (
	"fmt"
	"slices"
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
	// SSSP distances). It is sparse: Apply sees only the destinations
	// some message reached.
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
	// order.
	LocalFold bool
	// Source emits partition part's input rows. emit returns false once
	// a scheduled fault has struck; Source must stop then. Rows are
	// (dense source vertex index, payload).
	Source func(part int, emit func(src int32, val V) bool) error
	// Apply receives the folded updates owned by partition part, with
	// destinations in ascending dense-index order: under FoldMin the
	// destinations some message reached, under FoldSum all of
	// Parts.Owned[part], which dst then is. dst and val are borrowed
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
	// all partitions, since a vertex has one owner. Under FoldMin all
	// lists the live entries, so reset is O(touched), not O(vertices),
	// and touched[p] is partition p's share of them, handed to Apply.
	// FoldSum zeroes acc and adds every message, leaving the rest empty.
	acc     []V
	seen    []bool
	all     []int32
	touched [][]int32
	outVal  []V
	// Local-fold scratch of the partition being expanded: lacc is all
	// zeros and lseen all false between expansions, after a fault too,
	// so a local sum starts from +0. Under FoldMin ltouched lists the
	// live entries; FoldSum marks lseen and keeps no list.
	lacc     []V
	lseen    []bool
	ltouched []int32
	// bufs[dst] is the batch being filled for partition dst, nil until a
	// row is delivered to it.
	bufs []*ColBatch[V]
	run  colRun[V]
	// emit is run.row and emitSum run.rowSum, bound once so an
	// expansion allocates nothing.
	emit, emitSum func(src int32, val V) bool
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
	// The step's partition map and CSR columns, loaded once per run
	// rather than once per row.
	partOf, offsets, targets []int32
	weights                  []float64
	// part is the partition being expanded. Its rows fold into acc, seen
	// and touched — the local-fold scratch, or Run's fold scratch — or
	// are delivered as raw messages when acc is nil.
	part    int
	acc     []V
	seen    []bool
	touched []int32

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

// ensureScratch sizes the engine's persistent scratch for nv vertices
// across p partitions, reusing prior arrays when they fit.
func (e *ColEngine[V]) ensureScratch(p, nv int, local bool) {
	if len(e.touched) != p {
		e.touched = make([][]int32, p)
		e.bufs = make([]*ColBatch[V], p)
	}
	if len(e.acc) != nv {
		e.acc, e.seen = make([]V, nv), make([]bool, nv)
	}
	if local && len(e.lacc) != nv {
		e.lacc, e.lseen = make([]V, nv), make([]bool, nv)
	}
	if e.emit == nil {
		e.emit, e.emitSum = e.run.row, e.run.rowSum
	}
}

// newRun validates the step against the engine, sizes the pooled
// batches and the scratch, and resets e.run for a run of step — the
// set-up Run and the two hosted halves share.
func (e *ColEngine[V]) newRun(step *ColStep[V], fi *FaultInjection) (*colRun[V], error) {
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
	e.ensureScratch(e.Parallelism, step.Adj.NumVertices(), step.LocalFold)
	e.run = colRun[V]{
		e: e, step: step, batch: batch, fault: fi,
		partOf: step.Parts.PartOf, offsets: step.Adj.Offsets, targets: step.Adj.Targets, weights: step.Adj.Weights,
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
	r, err := e.newRun(step, fi)
	if err != nil {
		return ColStats{}, err
	}
	emit := e.emit
	if step.Fold == FoldSum {
		clear(e.acc)
		if !step.LocalFold {
			emit = e.emitSum
		}
	}
	if !step.LocalFold {
		r.acc, r.seen, r.touched = e.acc, e.seen, e.all
	}
	for part := 0; part < e.Parallelism && r.err == nil; part++ {
		r.expand(part, emit)
	}
	if !step.LocalFold {
		e.all, r.shuffled = r.touched, r.messages
	}
	if r.err == nil {
		for _, dst := range e.all {
			p := r.partOf[dst]
			e.touched[p] = append(e.touched[p], dst)
		}
		for p, touched := range e.touched {
			if r.err == nil {
				r.applyFolded(p, touched)
			}
			e.touched[p] = touched[:0]
		}
	}
	r.reset()
	if r.err != nil {
		return ColStats{}, r.err
	}
	return r.stats(start), nil
}

func (r *colRun[V]) stats(start time.Time) ColStats {
	return ColStats{Messages: r.messages, Shuffled: r.shuffled, Elapsed: time.Since(start)}
}

// expandHalf runs only the producing half, for the listed partitions,
// one after another: the exchange is sink, which is lent every flushed
// batch (after any local fold) and must copy what it keeps — the batch
// is recycled when sink returns.
func (e *ColEngine[V]) expandHalf(step *ColStep[V], parts []int, sink func(src, dst int, b *ColBatch[V])) (ColStats, error) {
	start := time.Now()
	r, err := e.newRun(step, nil)
	if err != nil {
		return ColStats{}, err
	}
	r.sink = sink
	for _, part := range parts {
		if r.expand(part, e.emit); r.err != nil {
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
	r, err := e.newRun(step, nil)
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
			r.applyFolded(part, e.all)
		}
		if r.reset(); r.err != nil {
			return r.err
		}
	}
	return nil
}

// expand is the producing half of partition part: it pulls source rows
// and walks their CSR edge ranges (emit: row, or Run's rowSum), then,
// under LocalFold, sends the folded rows on — a sum destination
// partition by destination partition (emitSums), a min through
// ascending and deliver — and flushes the batches still filling.
func (r *colRun[V]) expand(part int, emit func(src int32, val V) bool) {
	e, s := r.e, r.step
	r.part = part
	if s.LocalFold {
		r.acc, r.seen, r.touched = e.lacc, e.lseen, e.ltouched
	}
	if err := s.Source(part, emit); err != nil {
		r.fail(fmt.Errorf("col: source for partition %d: %w", part, err))
	}
	// Folded rows leave in ascending destination order, one per
	// destination, so the exchange byte stream is a function of the
	// input. The scratch is reset, to false and 0, whether the run goes
	// on or not.
	switch {
	case s.LocalFold && s.Fold == FoldSum:
		r.emitSums()
	case s.LocalFold:
		e.ltouched = ascending(r.touched, e.lseen, nil)
		for _, dst := range e.ltouched {
			if r.err == nil {
				r.deliver(dst, e.lacc[dst])
			}
			e.lseen[dst], e.lacc[dst] = false, 0
		}
		e.ltouched = e.ltouched[:0]
	}
	for i, bp := range e.bufs {
		if bp == nil {
			continue
		}
		e.bufs[i] = nil
		if r.err == nil {
			r.flushTo(part, i, bp)
		} else {
			e.pool.put(bp)
		}
	}
}

// emitSums sends a producing partition's local sums on, one destination
// partition d after another: it walks Parts.Owned[d], which is
// ascending, pushes every vertex a message reached straight into d's
// batch and resets the scratch as it goes. A row is written whether or
// not lseen marks it and kept only if it does, so the walk does not
// branch on lseen. After a fault it only resets.
func (r *colRun[V]) emitSums() {
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
				r.flushSums(d, bp, n)
				bp = e.pool.get(r.batch)
				dst, val, n = bp.Dst[:r.batch], bp.Val[:r.batch], 0
			}
		}
		r.flushSums(d, bp, n)
	}
}

// flushSums hands the first n rows emitSums wrote into bp to partition
// d's exchange, or recycles bp when it holds none.
func (r *colRun[V]) flushSums(d int, bp *ColBatch[V], n int) {
	if n == 0 {
		r.e.pool.put(bp)
		return
	}
	bp.Dst, bp.Val = bp.Dst[:n], bp.Val[:n]
	r.shuffled += int64(n)
	r.flushTo(r.part, d, bp)
}

// deliver appends one already-folded or raw message to its destination
// partition's batch, flushing the batch when it fills.
func (r *colRun[V]) deliver(dst int32, val V) {
	dp := r.partOf[dst]
	bp := r.e.bufs[dp]
	if bp == nil {
		bp = r.e.pool.get(r.batch)
		r.e.bufs[dp] = bp
	}
	bp.push(dst, val)
	r.shuffled++
	if bp.full(r.batch) {
		r.e.bufs[dp] = nil
		r.flushTo(r.part, int(dp), bp)
	}
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

// rowSum is Run's emit for a sum fold without LocalFold (sumFold).
func (r *colRun[V]) rowSum(src int32, val V) bool {
	lo, hi := r.offsets[src], r.offsets[src+1]
	if !r.clock(lo, hi) {
		return false
	}
	sumFold(r.step, r.acc, lo, hi, val)
	return true
}

// row is the expansion's emit: it counts one source row's messages and
// folds them (localFold) or delivers them. The three expand kinds are
// separate tight loops so the per-edge path has no switch and no
// indirect call; so are the fold ones (see localFold).
func (r *colRun[V]) row(src int32, val V) bool {
	lo, hi := r.offsets[src], r.offsets[src+1]
	if !r.clock(lo, hi) {
		return false
	}
	if r.acc != nil {
		r.touched = localFold(r.step, r.acc, r.seen, r.touched, lo, hi, val)
		return true
	}
	targets, weights := r.targets, r.weights
	switch r.step.Expand {
	case ExpandCopy:
		for j := lo; j < hi; j++ {
			r.deliver(targets[j], val)
		}
	case ExpandAddWeight:
		if weights == nil {
			for j := lo; j < hi; j++ {
				r.deliver(targets[j], val+V(1))
			}
		} else {
			for j := lo; j < hi; j++ {
				r.deliver(targets[j], val+V(weights[j]))
			}
		}
	case ExpandMulScale:
		scale := r.step.Scale
		for j := lo; j < hi; j++ {
			r.deliver(targets[j], val*V(scale[j]))
		}
	}
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

// sumFold adds the messages a source row sends along its edges lo..hi
// into Run's dense sum scratch, with no seen test and no touched list.
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

// localFold folds the messages one source row sends along its edges
// lo..hi into fold scratch — Run's under FoldMin, or a producing
// partition's local-fold scratch — and marks each destination in seen:
// one closure-free loop per ExpandKind × FoldKind, a direct call from
// row. A min loop tests seen, since its first message is the start
// value, and returns touched with the destinations seen first here
// appended. A sum loop adds into the zeroed scratch without a branch
// and returns touched as it was; emitSums finds its destinations by
// their marks.
func localFold[V ColValue](s *ColStep[V], acc []V, seen []bool, touched []int32, lo, hi int32, val V) []int32 {
	targets, col, val := edgeCols(s, lo, hi, val)
	min := s.Fold == FoldMin
	switch {
	case col == nil && min:
		for _, dst := range targets {
			if !seen[dst] {
				seen[dst], acc[dst] = true, val
				touched = append(touched, dst)
			} else if val < acc[dst] {
				acc[dst] = val
			}
		}
	case col == nil:
		for _, dst := range targets {
			acc[dst] += val
			seen[dst] = true
		}
	case s.Expand == ExpandAddWeight && min:
		for j, dst := range targets {
			if v := val + V(col[j]); !seen[dst] {
				seen[dst], acc[dst] = true, v
				touched = append(touched, dst)
			} else if v < acc[dst] {
				acc[dst] = v
			}
		}
	case s.Expand == ExpandAddWeight:
		for j, dst := range targets {
			acc[dst] += val + V(col[j])
			seen[dst] = true
		}
	case min:
		for j, dst := range targets {
			if v := val * V(col[j]); !seen[dst] {
				seen[dst], acc[dst] = true, v
				touched = append(touched, dst)
			} else if v < acc[dst] {
				acc[dst] = v
			}
		}
	default:
		for j, dst := range targets {
			acc[dst] += val * V(col[j])
			seen[dst] = true
		}
	}
	return touched
}

// fold folds the rows of one exchange batch into the fold scratch.
func (r *colRun[V]) fold(dsts []int32, vals []V) {
	e := r.e
	acc, seen, all := e.acc, e.seen, e.all
	if r.step.Fold == FoldSum {
		for i, dst := range dsts {
			acc[dst] += vals[i]
		}
		return
	}
	for i, dst := range dsts {
		if v := vals[i]; !seen[dst] {
			seen[dst], acc[dst] = true, v
			all = append(all, dst)
		} else if v < acc[dst] {
			acc[dst] = v
		}
	}
	e.all = all
}

// applyFolded hands partition part's folded updates to the step's
// Apply, with destinations in ascending dense-index order: under
// FoldSum every vertex the partition owns, under FoldMin the fold
// scratch entries touched lists, which it reorders in place.
func (r *colRun[V]) applyFolded(part int, touched []int32) {
	e := r.e
	// Ascending dense index == ascending VertexID: Apply sees updates in
	// a deterministic order.
	dst := r.step.Parts.Owned[part]
	if r.step.Fold == FoldMin {
		dst = ascending(touched, e.seen, dst)
	}
	outVal := e.outVal[:0]
	for _, d := range dst {
		outVal = append(outVal, e.acc[d])
	}
	e.outVal = outVal
	if err := r.step.Apply(part, KeyCol(dst), ValCol[V](outVal)); err != nil {
		r.fail(fmt.Errorf("col: apply for partition %d: %w", part, err))
	}
}

// reset clears the fold scratch, whether the run committed or aborted,
// so the next run starts from clean fold state.
func (r *colRun[V]) reset() {
	for _, i := range r.e.all {
		r.e.seen[i] = false
	}
	r.e.all = r.e.all[:0]
}

// scanDensity is the touched-set density, one index per scanDensity
// candidates, from which ascending scans instead of sorting.
const scanDensity = 8

// ascending returns touched, the set of indices marked in seen, in
// ascending order, reusing its array: FoldMin's order, for Apply and
// for its local fold's rows (a sum needs none, see emitSums). A dense
// set is rebuilt by scanning the candidates for seen entries — owned,
// which is ascending, or 0..len(seen)-1 when owned is nil — in
// O(candidates); a sparse one is sorted, so a delta iteration's tail
// stays O(touched log touched).
func ascending(touched []int32, seen []bool, owned []int32) []int32 {
	n := len(owned)
	if owned == nil {
		n = len(seen)
	}
	if len(touched)*scanDensity < n {
		slices.Sort(touched)
		return touched
	}
	out := touched[:0]
	for c := range int32(n) {
		if owned != nil {
			c = owned[c]
		}
		if seen[c] {
			out = append(out, c)
		}
	}
	return out
}
