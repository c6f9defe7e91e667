package main

import (
	"bytes"
	"testing"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// plainJob implements recovery.Job and nothing more, like proc.Job.
type plainJob struct{}

func (plainJob) Name() string                   { return "plain" }
func (plainJob) SnapshotTo(*bytes.Buffer) error { return nil }
func (plainJob) RestoreFrom([]byte) error       { return nil }
func (plainJob) ClearPartitions([]int)          {}
func (plainJob) Compensate([]int) error         { return nil }
func (plainJob) ResetToInitial() error          { return nil }

// confinedJob adds recovery.ConfinedJob, like vertexcentric.Runner.
type confinedJob struct {
	plainJob
	recovered *int
}

func (j confinedJob) RecoverConfined([]int) error { *j.recovered++; return nil }

// incrementalOnlyJob has a shape no job in the repository has.
type incrementalOnlyJob struct{ plainJob }

func (incrementalOnlyJob) PartitionVersions() []uint64                { return nil }
func (incrementalOnlyJob) SnapshotPartition(int, *bytes.Buffer) error { return nil }
func (incrementalOnlyJob) RestorePartition(int, []byte) error         { return nil }

func capabilities(j recovery.Job) (inc, async, delta, confined bool) {
	_, inc = j.(recovery.IncrementalJob)
	_, async = j.(recovery.AsyncJob)
	_, delta = j.(recovery.DeltaJob)
	_, confined = j.(recovery.ConfinedJob)
	return
}

// Policies type-assert the job for optional interfaces; a wrapper that
// hid one would push the policy onto another code path (or make it
// fail), one that invented one would make it call a method that is not
// there. The wrapper must mirror the inner job exactly.
func TestTraceJobMirrorsOptionalInterfaces(t *testing.T) {
	g := gen.Grid(4, 4)
	recovered := 0
	for _, tc := range []struct {
		name string
		job  recovery.Job
	}{
		{"cc: incremental+async+delta", cc.NewColumnar(g, 2)},
		{"pagerank: incremental+async", pagerank.NewColumnar(gen.Twitter(50, 1), 2, 0.85, nil)},
		{"plain", plainJob{}},
		{"confined", confinedJob{recovered: &recovered}},
	} {
		tr := newTracer(time.Now(), 1, "w", "v")
		wrapped, err := traceJob(tr, tc.job)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wi, wa, wd, wc := capabilities(tc.job)
		gi, ga, gd, gc := capabilities(wrapped)
		if wi != gi || wa != ga || wd != gd || wc != gc {
			t.Errorf("%s: wrapper offers incremental=%v async=%v delta=%v confined=%v, job has %v %v %v %v",
				tc.name, gi, ga, gd, gc, wi, wa, wd, wc)
		}
		if wrapped.Name() != tc.job.Name() {
			t.Errorf("%s: Name not forwarded", tc.name)
		}
	}

	tr := newTracer(time.Now(), 1, "w", "v")
	wrapped, _ := traceJob(tr, confinedJob{recovered: &recovered})
	if _, err := (recovery.Confined{}).OnFailure(wrapped, recovery.Failure{}); err != nil || recovered != 1 {
		t.Errorf("Confined policy through the wrapper: err %v, %d recoveries, want 1", err, recovered)
	}
	if _, err := traceJob(tr, incrementalOnlyJob{}); err == nil {
		t.Error("a job shape without a wrapper was narrowed instead of refused")
	}
}

// finishingPolicy counts Finish calls, like the async checkpoint
// policy's drain.
type finishingPolicy struct {
	recovery.Optimistic
	finished int
}

func (p *finishingPolicy) Finish(recovery.Job) error { p.finished++; return nil }

func spanNames(spans []span) map[string]int {
	names := make(map[string]int)
	for _, s := range spans {
		names[s.Name]++
	}
	return names
}

func TestTracedPolicyForwardsFinishOnlyToFinishers(t *testing.T) {
	tr := newTracer(time.Now(), 1, "w", "v")
	fin := &finishingPolicy{}
	var p recovery.Policy = &tracedPolicy{inner: fin, t: tr}
	if err := p.(recovery.Finisher).Finish(plainJob{}); err != nil || fin.finished != 1 {
		t.Errorf("Finish not forwarded: err %v, %d calls", err, fin.finished)
	}
	p = &tracedPolicy{inner: recovery.Optimistic{}, t: tr}
	if err := p.(recovery.Finisher).Finish(plainJob{}); err != nil {
		t.Errorf("Finish on a policy without one: %v", err)
	}
	if n := spanNames(tr.finish())["policy.finish"]; n != 1 {
		t.Errorf("%d policy.finish spans, want 1 (none for a policy without Finish)", n)
	}
}

// runCC runs columnar Connected Components under the async checkpoint
// policy, bare or with every seam wrapped.
func runCC(t *testing.T, tr *tracer) *iterate.Result {
	t.Helper()
	job := cc.NewColumnar(gen.Grid(40, 40), numPartitions)
	var store checkpoint.Store = checkpoint.NewMemoryStore()
	loop := &iterate.Loop{Name: "cc", Step: job.Step, Done: iterate.DeltaDone(job.WorksetLen), Job: job,
		Cluster: cluster.New(numWorkers, numPartitions)}
	if tr != nil {
		store = &tracedStore{inner: store, t: tr, background: true}
		loop.Step = traceStep(tr, job.Step)
		loop.Cluster = tracedCluster{loop.Cluster, tr}
		var err error
		if loop.Job, err = traceJob(tr, job); err != nil {
			t.Fatal(err)
		}
		loop.Policy = &tracedPolicy{inner: recovery.NewAsyncCheckpoint(1, store, 2), t: tr}
	} else {
		loop.Policy = recovery.NewAsyncCheckpoint(1, store, 2)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Through the wrappers the async pipeline must still be the async
// pipeline: captures at the barrier, encoding and saving behind it. If
// the job wrapper dropped AsyncJob the policy would refuse to start; if
// it serialised at the barrier the two times would coincide.
func TestTracedAsyncCheckpointKeepsBarrierCheap(t *testing.T) {
	bare := runCC(t, nil)
	tr := newTracer(time.Now(), 1, "cc", "async")
	traced := runCC(t, tr)
	names := spanNames(tr.finish())

	if traced.Supersteps != bare.Supersteps || traced.Ticks != bare.Ticks {
		t.Errorf("traced run committed %d supersteps in %d ticks, bare run %d in %d",
			traced.Supersteps, traced.Ticks, bare.Supersteps, bare.Ticks)
	}
	for i := range bare.Samples {
		if traced.Samples[i].Stats.Messages != bare.Samples[i].Stats.Messages {
			t.Fatalf("superstep %d exchanged %d messages traced, %d bare", i,
				traced.Samples[i].Stats.Messages, bare.Samples[i].Stats.Messages)
		}
	}
	o := traced.Overhead
	if o.Checkpoints == 0 || o.CommitTime == 0 {
		t.Fatalf("no checkpoint committed through the wrappers: %+v", o)
	}
	if 2*o.BarrierTime >= o.CommitTime {
		t.Errorf("barrier stall %v is not well below commit time %v: the capture is no longer asynchronous", o.BarrierTime, o.CommitTime)
	}
	for _, name := range []string{"step", "policy.setup", "policy.after", "policy.finish", "job.capture", "store.save"} {
		if names[name] == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
	if names["job.capture"] != bare.Supersteps+1 {
		t.Errorf("%d captures for %d supersteps at interval 1, want %d", names["job.capture"], bare.Supersteps, bare.Supersteps+1)
	}
	if names["job.snapshot"] != 0 {
		t.Errorf("%d synchronous snapshots taken under the async policy", names["job.snapshot"])
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, StartNs: 20, EndNs: 50},  // overlaps span 1
		{ID: 3, Parent: 2, StartNs: 25, EndNs: 45},  // a grandchild does not count
		{ID: 4, Parent: 0, StartNs: 90, EndNs: 120}, // clipped to the parent
	}
	if got := selfTime(spans, 0); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
}
