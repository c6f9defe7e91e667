package checkpoint

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"optiflow/internal/clock"
)

// PartitionSnapshot is a consistent, immutable capture of partitioned
// iteration state. Captures are cheap to take (copy-on-write views, see
// state.DenseStore.SnapshotShared) and safe to encode from multiple
// goroutines concurrently while the live state advances.
type PartitionSnapshot interface {
	// NumPartitions returns the partition count.
	NumPartitions() int
	// SnapshotPartition serialises partition p into buf. It must be
	// safe to call concurrently for distinct partitions.
	SnapshotPartition(p int, buf *bytes.Buffer) error
}

// bufPool recycles the per-partition encode buffers across checkpoints.
var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// EncodePartitions encodes the listed partitions of snap on up to par
// goroutines, each into a pooled buffer, handing every encoded blob to
// save. save must be safe for concurrent calls (the Store
// implementations are); it is not called for a partition whose encoding
// failed. The first error wins.
func EncodePartitions(snap PartitionSnapshot, parts []int, par int, save func(part int, data []byte) error) error {
	if len(parts) == 0 {
		return nil
	}
	if par < 1 {
		par = 1
	}
	if par > len(parts) {
		par = len(parts)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	// Buffered to the full work list so the producer loop below can
	// never block: even if every worker exited early, enqueue + close
	// would still complete and the function could report the error.
	work := make(chan int, len(parts))
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				buf := bufPool.Get().(*bytes.Buffer)
				buf.Reset()
				if err := snap.SnapshotPartition(p, buf); err != nil {
					fail(fmt.Errorf("checkpoint: encoding partition %d: %v", p, err))
					bufPool.Put(buf)
					continue
				}
				if err := save(p, buf.Bytes()); err != nil {
					fail(err)
				}
				bufPool.Put(buf)
			}
		}()
	}
	for _, p := range parts {
		work <- p
	}
	close(work)
	wg.Wait()
	return firstErr
}

// RestorePartitions replays one blob per partition on up to par
// goroutines. restore must be safe for concurrent calls on distinct
// partitions (partitioned state is). The first error wins.
func RestorePartitions(blobs map[int][]byte, par int, restore func(part int, data []byte) error) error {
	if len(blobs) == 0 {
		return nil
	}
	if par < 1 {
		par = 1
	}
	if par > len(blobs) {
		par = len(blobs)
	}
	parts := make([]int, 0, len(blobs))
	for p := range blobs {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	// Buffered like EncodePartitions' work queue: the producer must not
	// depend on worker liveness to make progress.
	work := make(chan int, len(parts))
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if err := restore(p, blobs[p]); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for _, p := range parts {
		work <- p
	}
	close(work)
	wg.Wait()
	return firstErr
}

// AsyncOptions configures an AsyncWriter.
type AsyncOptions struct {
	// Parallelism is the number of encoder goroutines per checkpoint
	// (default 1). A Compressed store gzips each blob in its Save, so
	// on these goroutines too.
	Parallelism int
	// QueueDepth bounds the number of in-flight checkpoints; Submit
	// blocks once the bound is reached (backpressure instead of
	// unbounded snapshot buffering). Default 2.
	QueueDepth int
}

// AsyncStats reports what an AsyncWriter did.
type AsyncStats struct {
	// Commits is the number of committed epochs.
	Commits int
	// Discarded is the number of submissions dropped by CancelPending.
	Discarded int
	// CommitTime is the summed capture-to-commit latency of all
	// committed epochs — the end-to-end checkpoint cost that the
	// iteration barrier no longer pays.
	CommitTime time.Duration
}

// AsyncWriter persists checkpoint epochs in the background. Submit is
// called at the superstep barrier with a cheap consistent capture and
// returns immediately; a drainer goroutine (started on demand, exits
// when the queue empties) encodes the capture's partitions in parallel
// into pooled buffers, saves them under the epoch's keys and publishes
// the commit marker. The commit protocol (see epoch.go) guarantees a
// failure mid-write leaves the previous committed epoch intact.
//
// Fence protocol for the caller (iterate.Loop / the recovery policy):
// on failure or termination, call CancelPending to drop queued-but-
// unstarted epochs, then Drain to await the one being written; after
// Drain returns, LoadCommitted observes the newest committed epoch and
// nothing torn.
type AsyncWriter struct {
	store Store
	job   string
	opts  AsyncOptions

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*pendingEpoch
	draining bool // drainer goroutine alive
	writing  bool // drainer is mid-write (not cancelable)
	inflight int  // queued + being written
	err      error
	epoch    uint64 // last assigned epoch number
	last     CommitRecord
	hasLast  bool
	stats    AsyncStats
}

type pendingEpoch struct {
	epoch     uint64
	superstep int
	snap      PartitionSnapshot
	dirty     []int // nil = full snapshot of every partition, replacing every older link
	submitted time.Time
}

// NewAsyncWriter returns a writer persisting epochs of job into store.
//
// Two scoping rules keep shared stores safe. First, a disk-backed store
// only has the job's own crash-abandoned temp files swept (TempSweeper)
// — never a concurrent job's in-flight writes. Second, if the store
// already holds a committed epoch of this job (a previous writer
// incarnation — e.g. a coordinator restarted after a crash), epoch
// numbering resumes above it and the incremental baseline is seeded
// from the committed record; a fresh writer restarting at epoch 1 would
// re-use key names the committed record still references, and its
// failed-write discard or superseded-blob GC would reclaim those live
// blobs, leaving the commit record pointing at nothing.
func NewAsyncWriter(store Store, job string, opts AsyncOptions) *AsyncWriter {
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 2
	}
	w := &AsyncWriter{store: store, job: job, opts: opts}
	w.cond = sync.NewCond(&w.mu)
	if ts, ok := store.(TempSweeper); ok {
		ts.SweepTemp(job)
	}
	if rec, ok, err := LoadCommitRecord(store, job); err == nil && ok {
		w.epoch = rec.Epoch
		w.last = rec
		w.hasLast = true
	}
	return w
}

// Submit enqueues one checkpoint: snap captured after superstep, with
// dirty listing the partitions changed since the previous submission
// (nil for a full snapshot). Submit blocks only when QueueDepth epochs
// are already in flight. Errors are sticky: once a background write
// fails, Submit and Drain report it.
func (w *AsyncWriter) Submit(superstep int, snap PartitionSnapshot, dirty []int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	for w.inflight >= w.opts.QueueDepth {
		w.cond.Wait()
		if w.err != nil {
			return w.err
		}
	}
	w.epoch++
	w.queue = append(w.queue, &pendingEpoch{
		epoch:     w.epoch,
		superstep: superstep,
		snap:      snap,
		dirty:     dirty,
		submitted: clock.Now(),
	})
	w.inflight++
	if !w.draining {
		w.draining = true
		go w.drain()
	}
	return nil
}

func (w *AsyncWriter) drain() {
	w.mu.Lock()
	for {
		if len(w.queue) == 0 || w.err != nil {
			w.queue = nil
			w.draining = false
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
		p := w.queue[0]
		w.queue = w.queue[1:]
		w.writing = true
		w.mu.Unlock()

		err := w.write(p)

		w.mu.Lock()
		w.writing = false
		w.inflight--
		if err != nil && w.err == nil {
			w.err = err
			// Submissions behind a failed write are dropped: their
			// base epochs may be incomplete.
			w.inflight -= len(w.queue)
			w.queue = nil
		}
		w.cond.Broadcast()
	}
}

// write persists one epoch: parallel encode + save of every (dirty)
// partition, then the atomic commit, then GC of superseded blobs. A
// full submission's record names its own partitions only, so the GC
// drops every older link; a dirty one carries the others over.
func (w *AsyncWriter) write(p *pendingEpoch) error {
	parts := p.dirty
	if parts == nil {
		parts = make([]int, p.snap.NumPartitions())
		for i := range parts {
			parts[i] = i
		}
	}
	err := EncodePartitions(p.snap, parts, w.opts.Parallelism, func(part int, data []byte) error {
		return SaveEpochPartition(w.store, w.job, p.epoch, p.superstep, part, data)
	})
	if err != nil {
		DiscardEpochParts(w.store, w.job, p.epoch, parts)
		return err
	}

	w.mu.Lock()
	prev := w.last
	w.mu.Unlock()

	rec := CommitRecord{Epoch: p.epoch, Superstep: p.superstep, Parts: make(map[int]uint64, len(prev.Parts)+len(parts))}
	if p.dirty != nil {
		maps.Copy(rec.Parts, prev.Parts)
	}
	for _, part := range parts {
		rec.Parts[part] = p.epoch
	}
	if err := Commit(w.store, w.job, rec); err != nil {
		DiscardEpochParts(w.store, w.job, p.epoch, parts)
		return err
	}
	for part, e := range prev.Parts {
		if rec.Parts[part] != e {
			DiscardEpochParts(w.store, w.job, e, []int{part})
		}
	}

	w.mu.Lock()
	w.last = rec
	w.hasLast = true
	w.stats.Commits++
	w.stats.CommitTime += clock.Since(p.submitted)
	w.mu.Unlock()
	return nil
}

// CancelPending drops every queued-but-unstarted submission and reports
// how many were discarded. The epoch currently being written (if any)
// completes normally — await it with Drain. If nothing has ever been
// committed and nothing is being written, the oldest submission is kept
// so a restore target always exists.
func (w *AsyncWriter) CancelPending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := 0
	if !w.hasLast && !w.writing && len(w.queue) > 0 {
		keep = 1
	}
	dropped := len(w.queue) - keep
	if dropped <= 0 {
		return 0
	}
	w.queue = w.queue[:keep]
	w.inflight -= dropped
	w.stats.Discarded += dropped
	w.cond.Broadcast()
	return dropped
}

// Drain blocks until every in-flight submission has committed (or
// failed) and returns the sticky error, if any. After Drain, a
// LoadCommitted on the store observes the newest committed epoch.
func (w *AsyncWriter) Drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inflight > 0 && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// Err returns the sticky background error, if any.
func (w *AsyncWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// LastCommitted returns the newest committed epoch's record. Call only
// after Drain for fence-correct reads.
func (w *AsyncWriter) LastCommitted() (CommitRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last, w.hasLast
}

// Stats reports commit counts and latency.
func (w *AsyncWriter) Stats() AsyncStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// QueueDepth returns the number of in-flight submissions (diagnostic).
func (w *AsyncWriter) QueueDepth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}
