// Columnar superstep engine: a vectorized execution path for the
// restricted pipeline shape every graph superstep in this repo shares —
//
//	source rows -> CSR edge expansion -> hash exchange -> monotone fold -> apply
//
// Records never exist individually: they travel as parallel int32/V
// columns in pooled ColBatch exchange batches, edges are iterated as
// contiguous slices of the graph's dense CSR arrays, routing is one
// array load into a precomputed partition map (no per-message hashing),
// and the fold scatters into dense per-partition scratch. The boxed
// dataflow engine remains the fully general path; ColEngine exists for
// the numeric-payload supersteps where boxing dominated the profile.
package exec

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"optiflow/internal/graph"
)

// FoldKind selects the fold applied to messages with the same
// destination. Both folds are commutative and associative over the
// payload domain (min exactly, sum up to float rounding), which is what
// makes pre-exchange local folding and arrival-order folding legal.
type FoldKind int

const (
	// FoldMin keeps the minimum payload per destination (CC labels,
	// SSSP distances).
	FoldMin FoldKind = iota
	// FoldSum accumulates payloads per destination (PageRank mass).
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
	// LocalFold folds messages in the producing task before the
	// exchange (the columnar combiner), shrinking shuffle volume to at
	// most one row per (producer, destination) pair.
	LocalFold bool
	// Source emits partition part's input rows. emit returns false if
	// the run is tearing down; Source must stop then. Rows are
	// (dense source vertex index, payload).
	Source func(part int, emit func(src int32, val V) bool) error
	// Apply receives the folded updates owned by partition part, with
	// destinations in ascending dense-index order. dst and val are
	// borrowed engine-owned columns: consume in place, do not retain.
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

// ColEngine executes columnar supersteps with a fixed parallelism. An
// engine owns pooled exchange batches and persistent per-partition fold
// scratch, so a converging iterative job reaches a steady state where
// a superstep allocates nothing per message: only a few dozen objects
// of per-run set-up (task goroutines, exchange channels). Run may not
// be called concurrently on one engine (iteration drivers are
// sequential); distinct engines are independent.
type ColEngine[V ColValue] struct {
	// Parallelism is the number of expander/folder task pairs and must
	// match the step's partitioning. Must be >= 1.
	Parallelism int
	// BatchSize overrides rows per exchange batch
	// (DefaultColBatchSize when zero).
	BatchSize int
	// ChannelDepth is the exchange buffer in batches (16 when zero).
	ChannelDepth int

	pool colPool[V]

	// Fold scratch, per partition, indexed by global dense vertex
	// index; touched tracks which entries are live so reset is
	// O(touched), not O(vertices).
	acc     [][]V
	seen    [][]bool
	touched [][]int32
	outVal  [][]V
	// Local-fold scratch, per producing partition.
	lacc     [][]V
	lseen    [][]bool
	ltouched [][]int32
	// Producer state, per producing partition.
	prod []producer[V]
	// half is the run state the hosted halves reuse, one at a time.
	half colRun[V]
}

type colRun[V ColValue] struct {
	e     *ColEngine[V]
	step  *ColStep[V]
	batch int
	// chans and done are Run's exchange and cancellation channels; the
	// hosted halves run inline on the caller's goroutine and have
	// neither.
	chans []chan *ColBatch[V]
	done  chan struct{}
	// sink, when set, replaces the channel exchange: flushed batches are
	// lent to it instead of sent to a fold task (see expandHalf).
	sink func(src, dst int, b *ColBatch[V])

	senders sync.WaitGroup
	folders sync.WaitGroup

	once      sync.Once
	aborted   atomic.Bool
	err       error
	fault     *FaultInjection
	processed atomic.Int64

	messages atomic.Int64
	shuffled atomic.Int64
}

// fail records the first error and tears the run down through the
// cancellation channel, exactly like the boxed engine (an inline half
// has none: its loops check aborted).
func (r *colRun[V]) fail(err error) {
	r.once.Do(func() {
		r.err = err
		r.aborted.Store(true)
		if r.done != nil {
			close(r.done)
		}
	})
}

// recordFlushed advances the plan-wide processed counter by one flushed
// batch and triggers a scheduled fault once the threshold is crossed.
// The columnar path counts at batch granularity: the crash strikes on
// the first flush past AfterRecords rather than the exact record, which
// preserves the contract that a plan finishing under the threshold
// completes normally.
func (r *colRun[V]) recordFlushed(n int) {
	f := r.fault
	if f == nil {
		return
	}
	if tot := r.processed.Add(int64(n)); tot > f.AfterRecords {
		r.fail(&WorkerFailure{
			Workers:    f.Workers,
			Partitions: f.Partitions,
			Processed:  tot,
		})
	}
}

func (r *colRun[V]) getBatch() *ColBatch[V] { return r.e.pool.get(r.batch) }

// putColBatch recycles a batch; the caller must not touch it afterwards.
func (r *colRun[V]) putColBatch(bp *ColBatch[V]) { r.e.pool.put(bp) }

// flushTo hands a full batch produced by partition src to partition p's
// side of the exchange — its fold channel, or the run's sink —
// transferring ownership. It returns false if the run is tearing down
// (the batch is recycled, not sent).
func (r *colRun[V]) flushTo(src, p int, bp *ColBatch[V]) bool {
	n := bp.Len()
	if n == 0 {
		r.putColBatch(bp)
		return true
	}
	r.recordFlushed(n)
	if r.aborted.Load() {
		r.putColBatch(bp)
		return false
	}
	if r.sink != nil {
		r.sink(src, p, bp)
		r.putColBatch(bp)
		return true
	}
	select {
	case r.chans[p] <- bp:
		return true
	case <-r.done:
		r.putColBatch(bp)
		return false
	}
}

// ensureScratch sizes the engine's persistent fold scratch for nv
// vertices across p partitions, reusing prior arrays when they fit.
func (e *ColEngine[V]) ensureScratch(p, nv int, local bool) {
	grow := func(n int) {
		e.acc = make([][]V, n)
		e.seen = make([][]bool, n)
		e.touched = make([][]int32, n)
		e.outVal = make([][]V, n)
		e.lacc = make([][]V, n)
		e.lseen = make([][]bool, n)
		e.ltouched = make([][]int32, n)
		e.prod = make([]producer[V], n)
		for i := range e.prod {
			e.prod[i].bufs = make([]*ColBatch[V], n)
			e.prod[i].emit = e.prod[i].row
		}
	}
	if len(e.acc) != p {
		grow(p)
	}
	for i := 0; i < p; i++ {
		if len(e.acc[i]) != nv {
			e.acc[i] = make([]V, nv)
			e.seen[i] = make([]bool, nv)
			e.touched[i] = nil
			e.outVal[i] = nil
		}
		if local && len(e.lacc[i]) != nv {
			e.lacc[i] = make([]V, nv)
			e.lseen[i] = make([]bool, nv)
			e.ltouched[i] = nil
		}
	}
}

// newRun validates the step against the engine, sizes the pooled
// batches and the fold scratch, and resets r for a run of step — the
// set-up Run and the two hosted halves share.
func (e *ColEngine[V]) newRun(r *colRun[V], step *ColStep[V], fi *FaultInjection) error {
	if e.Parallelism < 1 {
		e.Parallelism = 1
	}
	if step.Adj == nil || step.Parts == nil || step.Source == nil || step.Apply == nil {
		return fmt.Errorf("col: step needs Adj, Parts, Source and Apply")
	}
	if step.Parts.N != e.Parallelism {
		return fmt.Errorf("col: partitioning has %d partitions, engine parallelism is %d", step.Parts.N, e.Parallelism)
	}
	if step.Expand == ExpandMulScale && len(step.Scale) != len(step.Adj.Targets) {
		return fmt.Errorf("col: Scale column has %d entries, adjacency has %d edges", len(step.Scale), len(step.Adj.Targets))
	}
	batch := e.BatchSize
	if batch <= 0 {
		batch = DefaultColBatchSize
	}
	e.pool.init(batch)
	e.ensureScratch(e.Parallelism, step.Adj.NumVertices(), step.LocalFold)
	*r = colRun[V]{e: e, step: step, batch: batch, fault: fi}
	return nil
}

// Run executes one columnar superstep, optionally with a scheduled
// fault (nil for a clean run). A faulted run returns a *WorkerFailure
// and no stats; in-flight batches are recycled and fold scratch is
// reset, so the engine is reusable for the retry.
func (e *ColEngine[V]) Run(step *ColStep[V], fi *FaultInjection) (ColStats, error) {
	start := time.Now()
	r := new(colRun[V])
	if err := e.newRun(r, step, fi); err != nil {
		return ColStats{}, err
	}
	p := e.Parallelism
	depth := e.ChannelDepth
	if depth <= 0 {
		depth = 16
	}
	r.chans = make([]chan *ColBatch[V], p)
	for i := range r.chans {
		r.chans[i] = make(chan *ColBatch[V], depth)
	}
	r.done = make(chan struct{})
	r.senders.Add(p)
	r.folders.Add(p)
	for part := 0; part < p; part++ {
		go func() {
			defer r.senders.Done()
			r.expand(part)
		}()
		go func() {
			defer r.folders.Done()
			r.foldAndApply(part, func() (*ColBatch[V], error) { return <-r.chans[part], nil })
		}()
	}
	go func() {
		r.senders.Wait()
		for _, ch := range r.chans {
			close(ch)
		}
	}()
	r.folders.Wait()

	if r.err != nil {
		return ColStats{}, r.err
	}
	return r.stats(start), nil
}

func (r *colRun[V]) stats(start time.Time) ColStats {
	return ColStats{
		Messages: r.messages.Load(),
		Shuffled: r.shuffled.Load(),
		Elapsed:  time.Since(start),
	}
}

// expandHalf runs only the producing half, for the listed partitions,
// one after another on the caller's goroutine: the exchange is sink,
// which is lent every flushed batch (after any local fold) and must copy
// what it keeps — the batch is recycled when sink returns.
func (e *ColEngine[V]) expandHalf(step *ColStep[V], parts []int, sink func(src, dst int, b *ColBatch[V])) (ColStats, error) {
	start := time.Now()
	r := &e.half
	if err := e.newRun(r, step, nil); err != nil {
		return ColStats{}, err
	}
	r.sink = sink
	for _, part := range parts {
		if r.expand(part); r.err != nil {
			return ColStats{}, r.err
		}
	}
	return r.stats(start), nil
}

// foldHalf runs only the consuming half, for the listed partitions, one
// after another on the caller's goroutine: the exchange is next, which
// fills the pooled batch it is lent with partition part's next incoming
// batch, or reports that there is none left. Each batch is folded as
// soon as next fills it, in the order next yields them, so a
// deterministic next gives bit-identical float sums.
func (e *ColEngine[V]) foldHalf(step *ColStep[V], parts []int, next func(part int, b *ColBatch[V]) (bool, error)) error {
	r := &e.half
	if err := e.newRun(r, step, nil); err != nil {
		return err
	}
	for _, part := range parts {
		r.foldAndApply(part, func() (*ColBatch[V], error) {
			bp := r.getBatch()
			more, err := next(part, bp)
			if err != nil || !more {
				r.putColBatch(bp)
				bp = nil
			}
			if err != nil {
				err = fmt.Errorf("col: exchange into partition %d: %w", part, err)
			}
			return bp, err
		})
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// producer is the expanding task of one partition: its batches, one
// per destination partition, and its message counters. The engine
// keeps one per partition with emit bound to its row method once, so an
// expansion allocates nothing.
type producer[V ColValue] struct {
	r    *colRun[V]
	part int
	// The run's step.Parts.PartOf and CSR columns, loaded once per run
	// rather than once per row.
	partOf, offsets, targets []int32
	weights                  []float64
	// bufs[dst] is the batch being filled for partition dst; nil once
	// flushed or recycled.
	bufs               []*ColBatch[V]
	emit               func(src int32, val V) bool
	messages, shuffled int64
	// Run expands partitions on concurrent goroutines: the pad keeps
	// the counters, written per row and per message, off the cache line
	// holding the next producer's fields, which its core reads as often.
	_ [64]byte
}

// expand is the producing half of partition part: it pulls source rows,
// walks their CSR edge ranges and scatters messages into per-partition
// batches (or the local fold scratch).
func (r *colRun[V]) expand(part int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(fmt.Errorf("col: panic in expand task %d: %v\n%s", part, rec, debug.Stack()))
		}
	}()
	s := r.step
	p := &r.e.prod[part]
	p.r, p.part, p.messages, p.shuffled = r, part, 0, 0
	p.partOf, p.offsets, p.targets, p.weights = s.Parts.PartOf, s.Adj.Offsets, s.Adj.Targets, s.Adj.Weights
	for i := range p.bufs {
		p.bufs[i] = r.getBatch()
	}
	defer func() {
		r.messages.Add(p.messages)
		r.shuffled.Add(p.shuffled)
	}()

	if s.LocalFold {
		// The local-fold scratch is reset whether the run commits or
		// aborts, like the fold's.
		defer func() {
			lseen := r.e.lseen[part]
			for _, i := range r.e.ltouched[part] {
				lseen[i] = false
			}
			r.e.ltouched[part] = r.e.ltouched[part][:0]
		}()
	}

	if err := s.Source(part, p.emit); err != nil {
		r.fail(fmt.Errorf("col: source for partition %d: %w", part, err))
		p.abort()
		return
	}
	if r.aborted.Load() {
		p.abort()
		return
	}
	if s.LocalFold {
		// Folded rows leave in ascending destination order; sums within
		// a destination are already folded, so this fixes the exchange
		// byte stream for a given input.
		lacc, ltouched := r.e.lacc[part], ascending(r.e.ltouched[part], r.e.lseen[part], nil)
		r.e.ltouched[part] = ltouched
		for _, dst := range ltouched {
			if !p.deliver(dst, lacc[dst]) {
				p.abort()
				return
			}
		}
	}
	for i, bp := range p.bufs {
		if bp == nil {
			continue
		}
		p.bufs[i] = nil
		if !r.flushTo(part, i, bp) {
			p.abort()
			return
		}
	}
}

// abort recycles the batches the producer still holds.
func (p *producer[V]) abort() {
	for i, bp := range p.bufs {
		if bp != nil {
			p.r.putColBatch(bp)
			p.bufs[i] = nil
		}
	}
}

// deliver appends one already-folded or raw message to its destination
// partition's batch.
func (p *producer[V]) deliver(dst int32, val V) bool {
	r := p.r
	dp := p.partOf[dst]
	bp := p.bufs[dp]
	bp.push(dst, val)
	p.shuffled++
	if bp.full(r.batch) {
		if !r.flushTo(p.part, int(dp), bp) {
			p.bufs[dp] = nil
			return false
		}
		p.bufs[dp] = r.getBatch()
	}
	return true
}

// row is the producer's emit: it expands one source row over its
// contiguous edge range. The three expand kinds are separate tight loops
// so the per-edge path has no switch and no indirect call; so are the
// local-fold ones (see localFold).
func (p *producer[V]) row(src int32, val V) bool {
	r := p.r
	s := r.step
	targets, weights := p.targets, p.weights
	lo, hi := p.offsets[src], p.offsets[src+1]
	p.messages += int64(hi - lo)
	if s.LocalFold {
		r.e.ltouched[p.part] = localFold(s, r.e.lacc[p.part], r.e.lseen[p.part], r.e.ltouched[p.part], lo, hi, val)
		return !r.aborted.Load()
	}
	switch s.Expand {
	case ExpandCopy:
		for j := lo; j < hi; j++ {
			if !p.deliver(targets[j], val) {
				return false
			}
		}
	case ExpandAddWeight:
		if weights == nil {
			for j := lo; j < hi; j++ {
				if !p.deliver(targets[j], val+V(1)) {
					return false
				}
			}
		} else {
			for j := lo; j < hi; j++ {
				if !p.deliver(targets[j], val+V(weights[j])) {
					return false
				}
			}
		}
	case ExpandMulScale:
		for j := lo; j < hi; j++ {
			if !p.deliver(targets[j], val*V(s.Scale[j])) {
				return false
			}
		}
	}
	return true
}

// localFold folds the messages one source row sends along its edges
// lo..hi into a producing partition's local-fold scratch and returns
// touched with the destinations seen first here appended: the LocalFold
// branch of expand, one closure-free loop per ExpandKind × FoldKind (an
// unweighted ExpandAddWeight adds a constant 1, so it is ExpandCopy of
// val+1). It is a top-level function, a direct call from the producer's
// row.
func localFold[V ColValue](s *ColStep[V], acc []V, seen []bool, touched []int32, lo, hi int32, val V) []int32 {
	targets := s.Adj.Targets[lo:hi]
	var col []float64 // per-edge operand, parallel to targets
	switch {
	case s.Expand == ExpandMulScale:
		col = s.Scale[lo:hi]
	case s.Expand == ExpandAddWeight && s.Adj.Weights != nil:
		col = s.Adj.Weights[lo:hi]
	case s.Expand == ExpandAddWeight:
		val += V(1)
	}
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
			if !seen[dst] {
				seen[dst], acc[dst] = true, val
				touched = append(touched, dst)
			} else {
				acc[dst] += val
			}
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
			if v := val + V(col[j]); !seen[dst] {
				seen[dst], acc[dst] = true, v
				touched = append(touched, dst)
			} else {
				acc[dst] += v
			}
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
			if v := val * V(col[j]); !seen[dst] {
				seen[dst], acc[dst] = true, v
				touched = append(touched, dst)
			} else {
				acc[dst] += v
			}
		}
	}
	return touched
}

// foldAndApply is the consuming half of partition part: it folds the
// batches next hands over — Run's fold task receives them from the
// partition's channel, the inline hosted fold decodes them — into dense
// scratch as they come, recycles each, and hands the folded updates to
// the step's Apply callback in ascending destination order. next
// returns nil when there are no more; an error fails the run.
func (r *colRun[V]) foldAndApply(part int, next func() (*ColBatch[V], error)) {
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(fmt.Errorf("col: panic in fold task %d: %v\n%s", part, rec, debug.Stack()))
		}
	}()
	s := r.step
	acc, seen := r.e.acc[part], r.e.seen[part]
	touched := r.e.touched[part]
	// Scratch is reset whether the run commits or aborts, so a retry
	// after a mid-superstep failure starts from clean fold state.
	defer func() {
		for _, i := range touched {
			seen[i] = false
		}
		r.e.touched[part] = touched[:0]
	}()

	min := s.Fold == FoldMin
	for {
		bp, err := next()
		if err != nil {
			r.fail(err)
			return
		}
		if bp == nil {
			break
		}
		if r.aborted.Load() {
			r.putColBatch(bp)
			continue
		}
		dsts, vals := bp.Dst, bp.Val
		for i, dst := range dsts {
			v := vals[i]
			if !seen[dst] {
				seen[dst] = true
				acc[dst] = v
				touched = append(touched, dst)
				continue
			}
			if min {
				if v < acc[dst] {
					acc[dst] = v
				}
			} else {
				acc[dst] += v
			}
		}
		r.putColBatch(bp)
	}
	if r.aborted.Load() {
		return
	}

	// Ascending dense index == ascending VertexID: Apply sees updates
	// in a deterministic order regardless of arrival interleaving.
	touched = ascending(touched, seen, s.Parts.Owned[part])
	outVal := r.e.outVal[part][:0]
	for _, dst := range touched {
		outVal = append(outVal, acc[dst])
	}
	r.e.outVal[part] = outVal
	if err := s.Apply(part, KeyCol(touched), ValCol[V](outVal)); err != nil {
		r.fail(fmt.Errorf("col: apply for partition %d: %w", part, err))
	}
}

// scanDensity is the touched-set density, one index per scanDensity
// candidates, from which ascending scans instead of sorting.
const scanDensity = 8

// ascending returns touched, the set of indices marked in seen, in
// ascending order, reusing its array. A dense set is rebuilt by scanning
// the candidates for seen entries — owned, which is ascending, or
// 0..len(seen)-1 when owned is nil — in O(candidates); a sparse one is
// sorted, so a delta iteration's tail stays O(touched log touched).
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
