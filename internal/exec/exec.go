// Package exec is the parallel execution engine: it instantiates every
// operator of a dataflow plan as P parallel tasks (goroutines) wired by
// exchange channels, runs them to completion and reports per-edge
// record counts — the "messages" statistic the demonstration plots.
//
// The engine plays the role of a Flink task manager slice: hash
// exchanges route records with the same avalanche hash that assigns
// vertices to state partitions, so a record keyed by vertex v is
// processed by the task co-located with v's state partition.
package exec

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optiflow/internal/dataflow"
	"optiflow/internal/graph"
	"optiflow/internal/planlint"
)

// DefaultBatchSize is the number of records per exchange batch.
const DefaultBatchSize = 128

// Engine executes plans with a fixed parallelism.
type Engine struct {
	// Parallelism is the number of parallel tasks per operator and the
	// number of state partitions. Must be >= 1.
	Parallelism int
	// BatchSize overrides the records-per-batch granularity of
	// exchanges (DefaultBatchSize when zero).
	BatchSize int
	// ChannelDepth is the exchange channel buffer in batches (16 when
	// zero).
	ChannelDepth int
	// AllowLintErrors runs plans even when planlint reports
	// Error-severity diagnostics (e.g. iteration state without a
	// compensation operator). By default such plans are refused before
	// any task starts, because the defect would otherwise only surface
	// mid-recovery.
	AllowLintErrors bool

	// pool recycles exchange batches across all runs of this engine, so
	// an iterative job reuses the same backing arrays superstep after
	// superstep instead of leaving every flushed batch to the GC. See
	// DESIGN.md "Exchange memory model" for the ownership rules.
	poolOnce sync.Once
	pool     *sync.Pool
}

// batchPool lazily creates the engine-wide batch pool. The capacity of
// pooled batches is fixed by the first run's batch size; later runs
// with a larger BatchSize fall back to fresh allocations (getBatch
// checks capacity), which keeps the pool correct if a caller mutates
// the engine between runs.
func (e *Engine) batchPool(batchSize int) *sync.Pool {
	e.poolOnce.Do(func() {
		e.pool = &sync.Pool{New: func() any {
			b := make([]any, 0, batchSize)
			return &b
		}}
	})
	return e.pool
}

// Stats reports what a plan execution did.
type Stats struct {
	// EdgeRecords counts records that crossed each plan edge, keyed by
	// dataflow.EdgeName. Records into a shuffle are the paper's
	// "messages". Counts are exact for successful runs: a batch is
	// counted when it is handed to its exchange channel, and batches are
	// only ever dropped during teardown of a failing run — whose stats
	// are never returned (Run yields an error instead).
	EdgeRecords map[string]int64
	// NodeOutputs counts records emitted by each operator, keyed by
	// operator name.
	NodeOutputs map[string]int64
	// NodeElapsed sums the processing wall time of each operator's
	// tasks (per operator name) — an "explain analyze" profile.
	NodeElapsed map[string]time.Duration
}

// Records returns the count for a named edge (0 if absent).
func (s *Stats) Records(edge string) int64 { return s.EdgeRecords[edge] }

// Outputs returns the emit count for a named operator (0 if absent).
func (s *Stats) Outputs(node string) int64 { return s.NodeOutputs[node] }

// Elapsed returns the summed task time of a named operator.
func (s *Stats) Elapsed(node string) time.Duration { return s.NodeElapsed[node] }

// Profile renders an explain-analyze style report: operators sorted by
// processing time, with emitted record counts.
func (s *Stats) Profile() string {
	type row struct {
		name    string
		elapsed time.Duration
		out     int64
	}
	rows := make([]row, 0, len(s.NodeElapsed))
	for name, d := range s.NodeElapsed {
		rows = append(rows, row{name, d, s.NodeOutputs[name]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].elapsed != rows[j].elapsed {
			return rows[i].elapsed > rows[j].elapsed
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s  %14s  %14s\n", "operator", "task time", "records out")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s  %14v  %14d\n", r.name, r.elapsed.Round(time.Microsecond), r.out)
	}
	return b.String()
}

type edge struct {
	name    string
	ex      dataflow.Exchange
	key     dataflow.KeyFunc
	chans   []chan *[]any
	records atomic.Int64
	senders sync.WaitGroup
}

type run struct {
	p         int
	batchSize int
	pool      *sync.Pool
	done      chan struct{}
	errOnce   sync.Once
	err       error
	tasks     sync.WaitGroup

	// fault, when non-nil, schedules a mid-superstep crash (see
	// fault.go); processed is the plan-wide record counter driving it.
	fault     *FaultInjection
	processed atomic.Int64
}

func (r *run) fail(err error) {
	r.errOnce.Do(func() {
		r.err = err
		close(r.done)
	})
}

// getBatch takes a recycled batch from the pool (or a fresh one if the
// pooled batch is too small for this run's batch size).
func (r *run) getBatch() *[]any {
	bp := r.pool.Get().(*[]any)
	if cap(*bp) < r.batchSize {
		b := make([]any, 0, r.batchSize)
		return &b
	}
	*bp = (*bp)[:0]
	return bp
}

// putBatch returns a drained batch to the pool. Record references are
// cleared first so the pool does not pin records beyond their lifetime.
// After putBatch the batch belongs to the pool: the caller must not
// touch it (or its backing array) again.
func (r *run) putBatch(bp *[]any) {
	b := *bp
	clear(b)
	*bp = b[:0]
	r.pool.Put(bp)
}

// errCancelled is the task-internal teardown sentinel: a task that
// observes run.done closed stops producing and returns it. It never
// becomes the run's error — fail() is only ever invoked with the real
// error, which wins the errOnce before done is closed.
var errCancelled = fmt.Errorf("exec: cancelled by failure elsewhere in the plan")

// Prepared is a plan that has been validated and linted once, bound to
// its engine. Iterative drivers
// prepare the loop body a single time and run it every superstep,
// skipping the per-iteration analysis cost that Engine.Run would pay
// on each call.
type Prepared struct {
	e    *Engine
	plan *dataflow.Plan
}

// Prepare validates and lints the plan and returns a handle that can
// be run repeatedly.
func (e *Engine) Prepare(p *dataflow.Plan) (*Prepared, error) {
	if e.Parallelism < 1 {
		return nil, fmt.Errorf("exec: parallelism must be >= 1, got %d", e.Parallelism)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if errs := planlint.Errors(planlint.Lint(p)); len(errs) > 0 && !e.AllowLintErrors {
		var b strings.Builder
		fmt.Fprintf(&b, "exec: plan %q refused by static analysis (%d error(s); set AllowLintErrors to run anyway):", p.Name, len(errs))
		for _, d := range errs {
			b.WriteString("\n  " + d.String())
		}
		return nil, fmt.Errorf("%s", b.String())
	}
	return &Prepared{e: e, plan: p}, nil
}

// Run executes the plan and returns its statistics. Compensation nodes
// (Fig. 1's dotted boxes) and everything downstream of them are skipped:
// they exist for recovery and plan rendering, not failure-free flow.
func (e *Engine) Run(p *dataflow.Plan) (*Stats, error) {
	pp, err := e.Prepare(p)
	if err != nil {
		return nil, err
	}
	return pp.Run()
}

// Run executes the prepared plan once. It may be called any number of
// times; exchange batches are recycled through the engine's pool across
// runs.
func (pp *Prepared) Run() (*Stats, error) { return pp.RunWithFault(nil) }

// RunWithFault executes the prepared plan once with an optional
// scheduled mid-superstep worker crash (nil behaves exactly like Run).
// A triggered fault tears the run down and returns a *WorkerFailure;
// if the plan finishes before the fault's record threshold, the run
// succeeds normally.
func (pp *Prepared) RunWithFault(fi *FaultInjection) (*Stats, error) {
	e, p := pp.e, pp.plan
	P := e.Parallelism
	batch := e.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	depth := e.ChannelDepth
	if depth <= 0 {
		depth = 16
	}

	skip := skippedNodes(p)

	// Build edges: one per (producer, consumer-slot) pair.
	consumers := p.Consumers()
	outEdges := make(map[int][]*edge)      // producer ID -> edges
	inEdges := make(map[int]map[int]*edge) // consumer ID -> slot -> edge
	for _, n := range p.Nodes {
		if skip[n.ID] {
			continue
		}
		for _, ref := range consumers[n.ID] {
			if skip[ref.To.ID] {
				continue
			}
			ed := &edge{
				name:  dataflow.EdgeName(n, ref),
				ex:    ref.To.InExchange[ref.Slot],
				key:   ref.To.InKeys[ref.Slot],
				chans: make([]chan *[]any, P),
			}
			for i := range ed.chans {
				ed.chans[i] = make(chan *[]any, depth)
			}
			ed.senders.Add(P)
			go func(ed *edge) {
				ed.senders.Wait()
				for _, c := range ed.chans {
					close(c)
				}
			}(ed)
			outEdges[n.ID] = append(outEdges[n.ID], ed)
			if inEdges[ref.To.ID] == nil {
				inEdges[ref.To.ID] = make(map[int]*edge)
			}
			inEdges[ref.To.ID][ref.Slot] = ed
		}
	}

	r := &run{p: P, batchSize: batch, pool: e.batchPool(batch), done: make(chan struct{}), fault: fi}
	nodeOut := make(map[string]*atomic.Int64, len(p.Nodes))
	nodeNanos := make(map[string]*atomic.Int64, len(p.Nodes))
	for _, n := range p.Nodes {
		if !skip[n.ID] {
			nodeOut[n.Name] = &atomic.Int64{}
			nodeNanos[n.Name] = &atomic.Int64{}
		}
	}

	for _, n := range p.Nodes {
		if skip[n.ID] {
			continue
		}
		for part := 0; part < P; part++ {
			t := &task{
				run:    r,
				node:   n,
				part:   part,
				in:     inEdges[n.ID],
				out:    outEdges[n.ID],
				outCnt: nodeOut[n.Name],
				nanos:  nodeNanos[n.Name],
			}
			r.tasks.Add(1)
			go t.main()
		}
	}

	r.tasks.Wait()
	if r.err != nil {
		// Teardown of a failing run: recycle every batch still sitting
		// in an exchange channel whose consumer exited early, so an
		// aborted superstep leaves the pool whole. All senders are done
		// (tasks.Wait returned), so the closer goroutines close every
		// channel and these drains terminate.
		for _, eds := range outEdges {
			for _, ed := range eds {
				for _, ch := range ed.chans {
					for bp := range ch {
						r.putBatch(bp)
					}
				}
			}
		}
		return nil, r.err
	}

	stats := &Stats{
		EdgeRecords: make(map[string]int64),
		NodeOutputs: make(map[string]int64),
		NodeElapsed: make(map[string]time.Duration),
	}
	for _, eds := range outEdges {
		for _, ed := range eds {
			stats.EdgeRecords[ed.name] += ed.records.Load()
		}
	}
	for name, c := range nodeOut {
		stats.NodeOutputs[name] = c.Load()
	}
	for name, c := range nodeNanos {
		stats.NodeElapsed[name] = time.Duration(c.Load())
	}
	return stats, nil
}

// skippedNodes marks compensation nodes and their downstream closure.
func skippedNodes(p *dataflow.Plan) map[int]bool {
	skip := make(map[int]bool)
	for _, n := range p.Nodes {
		if n.Compensation {
			skip[n.ID] = true
		}
	}
	// Propagate: a node consuming any skipped input is skipped too.
	for changed := true; changed; {
		changed = false
		for _, n := range p.Nodes {
			if skip[n.ID] {
				continue
			}
			for _, in := range n.Inputs {
				if skip[in.ID] {
					skip[n.ID] = true
					changed = true
					break
				}
			}
		}
	}
	return skip
}

// task is one parallel instance of an operator.
type task struct {
	run    *run
	node   *dataflow.Node
	part   int
	in     map[int]*edge // slot -> edge
	out    []*edge
	outCnt *atomic.Int64
	nanos  *atomic.Int64

	buffers   [][]*[]any      // per out-edge, per dest partition; pooled
	routes    []func(rec any) // per out-edge routing, bound at task start
	rr        []int           // round-robin cursor per out-edge
	cancelled bool            // set once a flush observes teardown
}

func (t *task) main() {
	defer t.run.tasks.Done()
	defer func() {
		for _, ed := range t.out {
			ed.senders.Done()
		}
	}()
	// A panicking UDF must fail the job, not the process: convert it
	// into a task error so the run tears down cleanly and the caller
	// gets a diagnosable message.
	defer func() {
		if r := recover(); r != nil {
			t.run.fail(fmt.Errorf("exec: operator %q partition %d: UDF panic: %v\n%s",
				t.node.Name, t.part, r, debug.Stack()))
		}
	}()
	t.bindRoutes()
	start := time.Now()
	defer func() { t.nanos.Add(int64(time.Since(start))) }()
	err := t.process()
	if err == nil {
		err = t.flushAll()
	}
	if err != nil {
		// A cancelled task abandons its output buffers; recycle them so
		// a torn-down run leaves the pool whole. flush nils each buffer
		// slot before handing the batch on, so nothing is put twice.
		t.recycleBuffers()
		if err != errCancelled {
			t.run.fail(err)
		}
	}
}

// recycleBuffers returns every unflushed output buffer to the pool.
// Only called on the error path: a successful task drained all buffers
// through flushAll.
func (t *task) recycleBuffers() {
	for i := range t.buffers {
		for d, bp := range t.buffers[i] {
			if bp != nil {
				t.buffers[i][d] = nil
				t.run.putBatch(bp)
			}
		}
	}
}

// bindRoutes precomputes one routing function per out-edge, so emit
// pays the exchange-pattern dispatch once per task instead of once per
// record per edge.
func (t *task) bindRoutes() {
	P := t.run.p
	t.buffers = make([][]*[]any, len(t.out))
	t.rr = make([]int, len(t.out))
	t.routes = make([]func(any), len(t.out))
	for i, ed := range t.out {
		t.buffers[i] = make([]*[]any, P)
		i := i
		switch {
		case P == 1:
			// Every exchange pattern degenerates to a forward into
			// partition 0; skip the hash entirely.
			t.routes[i] = func(rec any) { t.push(i, 0, rec) }
		case ed.ex == dataflow.ExForward:
			part := t.part
			t.routes[i] = func(rec any) { t.push(i, part, rec) }
		case ed.ex == dataflow.ExHash:
			key := ed.key
			t.routes[i] = func(rec any) {
				t.push(i, int(graph.Hash(key(rec))%uint64(P)), rec)
			}
		case ed.ex == dataflow.ExBroadcast:
			t.routes[i] = func(rec any) {
				for d := 0; d < P; d++ {
					t.push(i, d, rec)
				}
			}
		default: // dataflow.ExRebalance
			t.routes[i] = func(rec any) {
				t.push(i, t.rr[i]%P, rec)
				t.rr[i]++
			}
		}
	}
}

func (t *task) emit(rec any) {
	t.outCnt.Add(1)
	t.run.recordProcessed()
	for _, route := range t.routes {
		route(rec)
	}
}

func (t *task) push(edgeIdx, dest int, rec any) {
	if t.cancelled {
		return // teardown observed: stop producing immediately
	}
	bp := t.buffers[edgeIdx][dest]
	if bp == nil {
		bp = t.run.getBatch()
		t.buffers[edgeIdx][dest] = bp
	}
	*bp = append(*bp, rec)
	if len(*bp) >= t.run.batchSize {
		// The flush error is sticky in t.cancelled; emit callers that
		// cannot propagate it stop at the next push.
		_ = t.flush(edgeIdx, dest)
	}
}

// flush hands the buffered batch of one (edge, dest) pair to its
// exchange channel, transferring ownership to the consumer. During
// teardown (run.done closed) the batch is recycled, the task marked
// cancelled, and errCancelled returned so callers stop producing; the
// dropped records are unobservable because a torn-down run reports an
// error instead of stats.
func (t *task) flush(edgeIdx, dest int) error {
	bp := t.buffers[edgeIdx][dest]
	if bp == nil || len(*bp) == 0 {
		return nil
	}
	t.buffers[edgeIdx][dest] = nil
	ed := t.out[edgeIdx]
	// Count before the send: once the consumer has the batch it may
	// recycle it concurrently, so len(*bp) must not be read after.
	n := int64(len(*bp))
	select {
	case ed.chans[dest] <- bp:
		ed.records.Add(n)
		return nil
	case <-t.run.done:
		t.run.putBatch(bp)
		t.cancelled = true
		return errCancelled
	}
}

// flushAll drains every buffered batch at end of task and reports the
// first teardown/cancellation encountered instead of silently dropping.
func (t *task) flushAll() error {
	var first error
	for i := range t.out {
		for d := 0; d < t.run.p; d++ {
			if err := t.flush(i, d); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// collect consumes an entire input slot as whole batches, returning
// them with the total record count (so consumers can pre-size hash
// tables). Ownership of every returned batch passes to the caller,
// which must recycle each one via run.putBatch after copying the
// records out.
func (t *task) collect(slot int) (batches []*[]any, n int) {
	ed := t.in[slot]
	if ed == nil {
		return nil, 0
	}
	for bp := range ed.chans[t.part] {
		batches = append(batches, bp)
		n += len(*bp)
	}
	return batches, n
}

// each streams an input slot through fn, recycling every drained batch.
func (t *task) each(slot int, fn func(rec any) error) error {
	ed := t.in[slot]
	if ed == nil {
		return nil
	}
	for bp := range ed.chans[t.part] {
		for _, rec := range *bp {
			if err := fn(rec); err != nil {
				t.run.putBatch(bp)
				return err
			}
		}
		t.run.putBatch(bp)
		select {
		case <-t.run.done:
			return errCancelled
		default:
		}
	}
	return nil
}

func (t *task) process() error {
	n := t.node
	emit := dataflow.Emit(t.emit)
	switch n.Kind {
	case dataflow.KindSource:
		return n.Source(t.part, t.run.p, emit)

	case dataflow.KindMap:
		return t.each(0, func(rec any) error {
			emit(n.MapFn(rec))
			return nil
		})

	case dataflow.KindFlatMap:
		return t.each(0, func(rec any) error {
			n.FlatMap(rec, emit)
			return nil
		})

	case dataflow.KindFilter:
		return t.each(0, func(rec any) error {
			if n.Filter(rec) {
				emit(rec)
			}
			return nil
		})

	case dataflow.KindUnion:
		for slot := range n.Inputs {
			if err := t.each(slot, func(rec any) error {
				emit(rec)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil

	case dataflow.KindLookup:
		table := n.Table(t.part, t.run.p)
		return t.each(0, func(rec any) error {
			n.Lookup(rec, table, emit)
			return nil
		})

	case dataflow.KindReduce:
		key := n.InKeys[0]
		if n.Combine != nil {
			// Streaming hash aggregation: fold each record into its
			// key's accumulator as it arrives instead of materializing
			// the whole group. Emission order stays deterministic via
			// sortedKeys, exactly like the materializing path.
			accs := make(map[uint64]any, n.KeyCard)
			if err := t.each(0, func(rec any) error {
				k := key(rec)
				accs[k] = n.Combine(accs[k], rec)
				return nil
			}); err != nil {
				return err
			}
			for _, k := range sortedKeys(accs) {
				n.Finish(k, accs[k], emit)
			}
			return nil
		}
		// Materializing path via counting scatter over the collected
		// input batches: one keying pass to count group sizes, then a
		// scatter pass regrouping records into a single contiguous
		// slice via a per-key offset table. Costs O(1) allocations
		// instead of one slice per group, and each group handed to
		// the UDF is a contiguous view in arrival order. The views
		// are engine-owned scratch — ReduceFunc documents that vals
		// must not be retained.
		batches, total := t.collect(0)
		keys := make([]uint64, 0, total)
		// Distinct keys never exceed the collected record count, so the
		// batch cardinality bounds the map; an explicit hint is tighter.
		card := total
		if n.KeyCard > 0 && n.KeyCard < card {
			card = n.KeyCard
		}
		counts := make(map[uint64]int, card)
		for _, bp := range batches {
			for _, rec := range *bp {
				k := key(rec)
				keys = append(keys, k)
				counts[k]++
			}
		}
		ordered := sortedKeys(counts)
		offs := make(map[uint64]int, len(counts))
		pos := 0
		for _, k := range ordered {
			offs[k] = pos
			pos += counts[k]
		}
		grouped := make([]any, total)
		i := 0
		for _, bp := range batches {
			for _, rec := range *bp {
				k := keys[i]
				grouped[offs[k]] = rec
				offs[k]++
				i++
			}
			t.run.putBatch(bp)
		}
		// After the scatter, offs[k] is one past the end of k's group.
		for _, k := range ordered {
			end := offs[k]
			start := end - counts[k]
			n.Reduce(k, grouped[start:end:end], emit)
		}
		return nil

	case dataflow.KindJoin:
		// Hash-join build (slot 1) against probe (slot 0). The build
		// side must finish before probing can start, but the probe
		// channel has to be consumed concurrently the whole time to
		// stay deadlock-free on diamond-shaped plans (a shared
		// upstream blocking on a full probe channel would never feed
		// the build side). A helper goroutine buffers probe batches
		// that arrive during the build phase; once the build map is
		// ready we replay the buffer and stream the rest of the probe
		// side batch-by-batch without materializing it.
		probeCh := t.in[0].chans[t.part]
		buildDone := make(chan struct{})
		bufDone := make(chan struct{})
		var buffered []*[]any
		probeClosed := false
		go func() {
			defer close(bufDone)
			for {
				select {
				case bp, ok := <-probeCh:
					if !ok {
						probeClosed = true
						return
					}
					buffered = append(buffered, bp)
				case <-buildDone:
					return
				}
			}
		}()
		buildKey, probeKey := n.InKeys[1], n.InKeys[0]
		// Build table via counting scatter (same layout as Reduce):
		// one contiguous record slice regrouped by key with an offset
		// table, instead of a map[uint64][]any costing one slice
		// allocation per key. Pre-sized from the collected count.
		batches, nBuild := t.collect(1)
		recs := make([]any, 0, nBuild)
		keys := make([]uint64, 0, nBuild)
		counts := make(map[uint64]int, nBuild)
		for _, bp := range batches {
			for _, rec := range *bp {
				k := buildKey(rec)
				recs = append(recs, rec)
				keys = append(keys, k)
				counts[k]++
			}
			t.run.putBatch(bp)
		}
		offs := make(map[uint64]int, len(counts))
		pos := 0
		for k, c := range counts {
			offs[k] = pos
			pos += c
		}
		grouped := make([]any, len(recs))
		for i, rec := range recs {
			k := keys[i]
			grouped[offs[k]] = rec
			offs[k]++
		}
		close(buildDone)
		// The helper's close(bufDone) happens-before this receive, so
		// reading buffered/probeClosed afterwards is race-free.
		<-bufDone
		probeOne := func(l any) {
			k := probeKey(l)
			// After the scatter, offs[k] is one past the end of k's
			// group and counts[k] its length.
			end, ok := offs[k]
			if !ok {
				if n.JoinType == dataflow.JoinLeftOuter {
					n.Join(l, nil, emit)
				}
				return
			}
			for _, r := range grouped[end-counts[k] : end] {
				n.Join(l, r, emit)
			}
		}
		for _, bp := range buffered {
			for _, l := range *bp {
				probeOne(l)
			}
			t.run.putBatch(bp)
		}
		if !probeClosed {
			for bp := range probeCh {
				for _, l := range *bp {
					probeOne(l)
				}
				t.run.putBatch(bp)
				select {
				case <-t.run.done:
					return errCancelled
				default:
				}
			}
		}
		return nil

	case dataflow.KindCoGroup:
		// Collect both sides concurrently (deadlock-freedom, as for
		// Join) and pre-size the group maps from the record counts.
		var lBatches []*[]any
		var nLeft int
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			lBatches, nLeft = t.collect(0)
		}()
		rBatches, nRight := t.collect(1)
		wg.Wait()
		lk, rk := n.InKeys[0], n.InKeys[1]
		lg := make(map[uint64][]any, nLeft)
		rg := make(map[uint64][]any, nRight)
		for _, bp := range lBatches {
			for _, rec := range *bp {
				k := lk(rec)
				lg[k] = append(lg[k], rec)
			}
			t.run.putBatch(bp)
		}
		for _, bp := range rBatches {
			for _, rec := range *bp {
				k := rk(rec)
				rg[k] = append(rg[k], rec)
			}
			t.run.putBatch(bp)
		}
		keys := make(map[uint64]struct{}, len(lg)+len(rg))
		for k := range lg {
			keys[k] = struct{}{}
		}
		for k := range rg {
			keys[k] = struct{}{}
		}
		ordered := make([]uint64, 0, len(keys))
		for k := range keys {
			ordered = append(ordered, k)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
		for _, k := range ordered {
			n.CoGroup(k, lg[k], rg[k], emit)
		}
		return nil

	case dataflow.KindSink:
		return t.each(0, func(rec any) error {
			return n.Sink(t.part, rec)
		})

	default:
		return fmt.Errorf("exec: unknown operator kind %v", n.Kind)
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
