package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// Tracing from outside: every layer boundary the iteration loop crosses
// is a public seam (Loop.Step, recovery.Policy, recovery.Job,
// checkpoint.Store, cluster.Interface), so the traced pass wraps each
// in a timing decorator instead of editing the layer. The end-to-end
// pass runs the bare objects; the difference is trace.overhead_pct.

// span is one timed call into a layer. Spans of one job run share Run;
// Parent is the span that made the call (-1 for the run's root).
type span struct {
	Run       int    `json:"run"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // since the benchmark started
	EndNs     int64  `json:"end_ns"`
	Superstep int    `json:"superstep"` // -1 where none applies
	Tick      int    `json:"tick"`
	Messages  int64  `json:"messages"`
	Bytes     int64  `json:"bytes"`
	Workload  string `json:"workload,omitempty"` // root spans only
	Variant   string `json:"variant,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// attrs are the counts a decorator attaches when its span ends.
type attrs struct {
	superstep, tick int
	messages, bytes int64
}

var noAttrs = attrs{superstep: -1, tick: -1}

// tracer collects the spans of one job run in memory. The iteration
// loop is single-threaded, so the open-span stack gives each span its
// parent; calls that policies make from helper goroutines (parallel
// partition encode/restore, the async checkpoint writer) attach to a
// fixed parent instead of touching the stack.
type tracer struct {
	epoch time.Time
	run   int

	mu    sync.Mutex
	spans []span
	stack []int
}

func newTracer(epoch time.Time, run int, workload, variant string) *tracer {
	t := &tracer{epoch: epoch, run: run, spans: make([]span, 0, 2048)}
	t.begin("run")
	t.spans[0].Workload, t.spans[0].Variant = workload, variant
	return t
}

func (t *tracer) open(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Run: t.run, ID: id, Parent: parent, Name: name,
		Superstep: -1, Tick: -1, StartNs: int64(time.Since(t.epoch)),
	})
	return id
}

// begin opens a span under the innermost open one and makes it the
// innermost. Only the loop's own goroutine may call it.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := t.open(name, parent)
	t.stack = append(t.stack, id)
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int, a attrs) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stack = t.stack[:len(t.stack)-1]
	t.close(id, now, a)
}

// beginAside opens a span from a helper goroutine: under the loop's
// innermost open span (the hook that is waiting for the helpers), or
// under the run's root when background is set (work that outlives the
// hook that queued it).
func (t *tracer) beginAside(name string, background bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if !background && len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	return t.open(name, parent)
}

func (t *tracer) endAside(id int, a attrs) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.close(id, now, a)
}

func (t *tracer) close(id int, now int64, a attrs) {
	s := &t.spans[id]
	s.EndNs = now
	s.Superstep, s.Tick, s.Messages, s.Bytes = a.superstep, a.tick, a.messages, a.bytes
}

// timed runs fn as a span of the given name and returns how long it
// took. A nil tracer only times: the bare pass and the traced pass share
// one code path around the phases that are not part of Loop.Run.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	if t == nil {
		err := fn()
		return time.Since(start), err
	}
	id := t.begin(name)
	err := fn()
	t.end(id, noAttrs)
	return time.Since(start), err
}

// finish closes the root span and returns the run's spans.
func (t *tracer) finish() []span {
	t.end(0, noAttrs)
	return t.spans
}

// selfTime is a span's duration minus the part of it its direct
// children cover (children may overlap when helpers run in parallel).
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	// Spans are appended in start order, so kids is sorted by lo.
	var covered, reach int64
	for _, k := range kids {
		if k.lo > reach {
			reach = k.lo
		}
		if k.hi > reach {
			covered += k.hi - reach
			reach = k.hi
		}
	}
	return p.dur() - time.Duration(covered)
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing span: %w", err)
		}
	}
	return nil
}

type stepFunc = func(*iterate.Context) (iterate.StepStats, error)

// traceStep times the loop body. Bytes is the heap allocated during
// the superstep.
func traceStep(t *tracer, step stepFunc) stepFunc {
	return func(ctx *iterate.Context) (iterate.StepStats, error) {
		before := heapAllocs()
		id := t.begin("step")
		stats, err := step(ctx)
		t.end(id, attrs{superstep: ctx.Superstep, tick: ctx.Tick,
			messages: stats.Messages, bytes: int64(heapAllocs() - before)})
		return stats, err
	}
}

// tracedPolicy times the policy hooks. It always offers Finish, which
// iterate.Loop looks for, and forwards it only to policies that have
// one.
type tracedPolicy struct {
	inner recovery.Policy
	t     *tracer
}

func (p *tracedPolicy) PolicyName() string          { return p.inner.PolicyName() }
func (p *tracedPolicy) Overhead() recovery.Overhead { return p.inner.Overhead() }

func (p *tracedPolicy) Setup(job recovery.Job) error {
	id := p.t.begin("policy.setup")
	err := p.inner.Setup(job)
	p.t.end(id, noAttrs)
	return err
}

func (p *tracedPolicy) AfterSuperstep(job recovery.Job, superstep int) error {
	id := p.t.begin("policy.after")
	err := p.inner.AfterSuperstep(job, superstep)
	p.t.end(id, attrs{superstep: superstep, tick: -1})
	return err
}

func (p *tracedPolicy) OnFailure(job recovery.Job, f recovery.Failure) (int, error) {
	id := p.t.begin("policy.onfailure")
	resume, err := p.inner.OnFailure(job, f)
	p.t.end(id, attrs{superstep: f.Superstep, tick: f.Tick})
	return resume, err
}

func (p *tracedPolicy) Finish(job recovery.Job) error {
	fin, ok := p.inner.(recovery.Finisher)
	if !ok {
		return nil
	}
	id := p.t.begin("policy.finish")
	err := fin.Finish(job)
	p.t.end(id, noAttrs)
	return err
}

// tracedJob times the recovery.Job surface. Policies type-assert the
// job they are handed for optional capabilities, so traceJob composes
// the wrapper from exactly the capabilities the inner job has — a
// wrapper offering more would make a policy call what is not there, one
// offering less would silently measure a different code path.
type tracedJob struct {
	inner recovery.Job
	t     *tracer
}

func (j tracedJob) Name() string { return j.inner.Name() }

func (j tracedJob) SnapshotTo(w *bytes.Buffer) error {
	before := w.Len()
	id := j.t.begin("job.snapshot")
	err := j.inner.SnapshotTo(w)
	j.t.end(id, attrs{superstep: -1, tick: -1, bytes: int64(w.Len() - before)})
	return err
}

func (j tracedJob) RestoreFrom(data []byte) error {
	id := j.t.begin("job.restore")
	err := j.inner.RestoreFrom(data)
	j.t.end(id, attrs{superstep: -1, tick: -1, bytes: int64(len(data))})
	return err
}

func (j tracedJob) ClearPartitions(parts []int) {
	id := j.t.begin("job.clear")
	j.inner.ClearPartitions(parts)
	j.t.end(id, noAttrs)
}

func (j tracedJob) Compensate(lost []int) error {
	id := j.t.begin("job.compensate")
	err := j.inner.Compensate(lost)
	j.t.end(id, noAttrs)
	return err
}

func (j tracedJob) ResetToInitial() error {
	id := j.t.begin("job.reset")
	err := j.inner.ResetToInitial()
	j.t.end(id, noAttrs)
	return err
}

// tracedIncremental adds recovery.IncrementalJob. Policies encode and
// restore partitions from parallel goroutines, hence the aside spans.
type tracedIncremental struct {
	inner recovery.IncrementalJob
	t     *tracer
}

func (j tracedIncremental) PartitionVersions() []uint64 { return j.inner.PartitionVersions() }

func (j tracedIncremental) SnapshotPartition(p int, buf *bytes.Buffer) error {
	before := buf.Len()
	id := j.t.beginAside("job.snapshot_partition", false)
	err := j.inner.SnapshotPartition(p, buf)
	j.t.endAside(id, attrs{superstep: -1, tick: -1, bytes: int64(buf.Len() - before)})
	return err
}

func (j tracedIncremental) RestorePartition(p int, data []byte) error {
	id := j.t.beginAside("job.restore_partition", false)
	err := j.inner.RestorePartition(p, data)
	j.t.endAside(id, attrs{superstep: -1, tick: -1, bytes: int64(len(data))})
	return err
}

// tracedAsync adds recovery.AsyncJob's barrier-time capture. The
// capture it returns is encoded by the checkpoint writer's goroutines
// and is handed back untouched.
type tracedAsync struct {
	inner recovery.AsyncJob
	t     *tracer
}

func (j tracedAsync) CaptureSnapshot() checkpoint.PartitionSnapshot {
	id := j.t.begin("job.capture")
	snap := j.inner.CaptureSnapshot()
	j.t.end(id, noAttrs)
	return snap
}

// tracedDelta adds recovery.DeltaJob.
type tracedDelta struct {
	inner recovery.DeltaJob
	t     *tracer
}

func (j tracedDelta) SnapshotDelta(buf *bytes.Buffer) error {
	before := buf.Len()
	id := j.t.begin("job.snapshot_delta")
	err := j.inner.SnapshotDelta(buf)
	j.t.end(id, attrs{superstep: -1, tick: -1, bytes: int64(buf.Len() - before)})
	return err
}

func (j tracedDelta) RestoreFromChain(base []byte, deltas [][]byte) error {
	id := j.t.begin("job.restore_chain")
	err := j.inner.RestoreFromChain(base, deltas)
	j.t.end(id, noAttrs)
	return err
}

// tracedConfined adds recovery.ConfinedJob.
type tracedConfined struct {
	inner recovery.ConfinedJob
	t     *tracer
}

func (j tracedConfined) RecoverConfined(lost []int) error {
	id := j.t.begin("job.recover_confined")
	err := j.inner.RecoverConfined(lost)
	j.t.end(id, noAttrs)
	return err
}

// traceJob wraps job with the optional interfaces it implements and no
// others. The shapes are the ones jobs in this repository have: plain
// (proc.Job), async (pagerank.PR; AsyncJob includes IncrementalJob),
// async with delta logs (cc.CC) and confined (vertexcentric.Runner).
// Any other combination is refused rather than narrowed.
func traceJob(t *tracer, job recovery.Job) (recovery.Job, error) {
	base := tracedJob{job, t}
	inc, isInc := job.(recovery.IncrementalJob)
	asy, isAsync := job.(recovery.AsyncJob)
	del, isDelta := job.(recovery.DeltaJob)
	con, isConfined := job.(recovery.ConfinedJob)
	switch {
	case isAsync && isDelta && !isConfined:
		return struct {
			tracedJob
			tracedIncremental
			tracedAsync
			tracedDelta
		}{base, tracedIncremental{inc, t}, tracedAsync{asy, t}, tracedDelta{del, t}}, nil
	case isAsync && !isDelta && !isConfined:
		return struct {
			tracedJob
			tracedIncremental
			tracedAsync
		}{base, tracedIncremental{inc, t}, tracedAsync{asy, t}}, nil
	case isConfined && !isInc && !isDelta:
		return struct {
			tracedJob
			tracedConfined
		}{base, tracedConfined{con, t}}, nil
	case !isInc && !isDelta && !isConfined:
		return base, nil
	}
	return nil, fmt.Errorf("no tracing wrapper for job %T (incremental=%v async=%v delta=%v confined=%v)",
		job, isInc, isAsync, isDelta, isConfined)
}

// tracedStore times the stable-storage calls. background marks a store
// driven by the async checkpoint writer, whose saves overlap the
// following supersteps. Delete is forwarded so the epoch layer's
// garbage collection behaves as on the bare store.
type tracedStore struct {
	inner      checkpoint.Store
	t          *tracer
	background bool
}

func (s *tracedStore) Save(job string, superstep int, data []byte) error {
	id := s.t.beginAside("store.save", s.background)
	err := s.inner.Save(job, superstep, data)
	s.t.endAside(id, attrs{superstep: superstep, tick: -1, bytes: int64(len(data))})
	return err
}

func (s *tracedStore) Load(job string) ([]byte, int, bool, error) {
	id := s.t.beginAside("store.load", s.background)
	data, superstep, ok, err := s.inner.Load(job)
	s.t.endAside(id, attrs{superstep: superstep, tick: -1, bytes: int64(len(data))})
	return data, superstep, ok, err
}

func (s *tracedStore) BytesWritten() int64 { return s.inner.BytesWritten() }
func (s *tracedStore) Saves() int          { return s.inner.Saves() }

func (s *tracedStore) Delete(job string) error {
	if del, ok := s.inner.(checkpoint.Deleter); ok {
		return del.Delete(job)
	}
	return nil
}

// tracedCluster times the membership calls of the failure path; for a
// proc cluster Fail is a SIGKILL and AcquireN is spawn + handshake +
// adjacency reload.
type tracedCluster struct {
	cluster.Interface
	t *tracer
}

func (c tracedCluster) Fail(w int) []int {
	id := c.t.begin("cluster.fail")
	lost := c.Interface.Fail(w)
	c.t.end(id, noAttrs)
	return lost
}

func (c tracedCluster) Acquire() (int, []int) {
	id := c.t.begin("cluster.acquire")
	w, adopted := c.Interface.Acquire()
	c.t.end(id, noAttrs)
	return w, adopted
}

func (c tracedCluster) AcquireN(n int) ([]int, [][]int, error) {
	id := c.t.begin("cluster.acquire")
	ws, adopted, err := c.Interface.AcquireN(n)
	c.t.end(id, noAttrs)
	return ws, adopted, err
}
