package proc

// statemove_test.go exercises the one state-transfer path — FetchReq
// and RestoreReq on the ctrl conn — under network fault injection: a
// fetch/restore round trip, a lost FetchResp answered from the
// idempotence cache with its carried commit applied once, a severed
// worker, a delay burst, the hard-failure path where an exhausted retry
// budget surfaces as a recoverable worker failure, and a checkpointing
// run under scripted blips.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/exec"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// faultyStateCluster starts a cluster whose every conn runs through nw,
// with a retry budget far beyond the faults a cell injects, and loads
// the CC test graph onto it.
func faultyStateCluster(t *testing.T, nw *netfault.Network, callTimeout time.Duration) *Coordinator {
	t.Helper()
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.CallTimeout = callTimeout
		c.SuspicionGrace = 10 * time.Second
		c.ReconnectGrace = 20 * time.Second
		// Keep the beat stream quiet so a scripted drop hits the frame it
		// is aimed at, not a heartbeat.
		c.Heartbeat = 5 * time.Second
		c.LivenessWindow = 30 * time.Second
	})
	if _, err := NewJob(co, Spec{Name: "cc-statemove", Kind: KindCC, Graph: ccTestGraph()}); err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return co
}

// fetchParts reads worker w's committed state views of parts, carrying
// its debt, into fresh memory.
func fetchParts(co *Coordinator, w int, parts []int) ([]PartBlob, error) {
	resp, err := co.call(w, FetchReq{Parts: parts})
	if err != nil {
		return nil, err
	}
	return resp.(FetchResp).Parts, nil
}

// restoreParts overwrites partition state on worker w once w's debt is
// settled.
func restoreParts(co *Coordinator, w int, parts []PartBlob) error {
	_, err := co.call(w, RestoreReq{Parts: parts})
	return err
}

// fetchUnder fetches worker w's partitions once undisturbed, then again
// after fault() — the second must equal the first, with nobody
// condemned.
func fetchUnder(t *testing.T, co *Coordinator, fault func(w int)) {
	t.Helper()
	w := co.Workers()[0]
	parts := co.PartitionsOf(w)
	want, err := fetchParts(co, w, parts)
	if err != nil {
		t.Fatalf("undisturbed fetch from worker %d: %v", w, err)
	}
	fault(w)
	got, err := fetchParts(co, w, parts)
	if err != nil {
		t.Fatalf("fetch from worker %d: %v", w, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch diverged:\n got %v\nwant %v", got, want)
	}
	if st := co.NetStats(); st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0 — the fault was within grace", st.Condemned)
	}
}

// TestStateMoveRoundTrip fetches every worker's state views, mutates
// every label, restores them and fetches again: what lands is exactly
// what was sent.
func TestStateMoveRoundTrip(t *testing.T) {
	co := startTestCluster(t, 2, 4, nil)
	if _, err := NewJob(co, Spec{Name: "cc-roundtrip", Kind: KindCC, Graph: ccTestGraph()}); err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	for _, w := range co.Workers() {
		parts := co.PartitionsOf(w)
		got, err := fetchParts(co, w, parts)
		if err != nil {
			t.Fatalf("fetch from worker %d: %v", w, err)
		}
		// Mutate every label (the low byte of each value, past the slot
		// count and presence bytes of the view), push it back and read
		// it again.
		for i := range got {
			view := got[i].Data
			slots := int(binary.LittleEndian.Uint32(view))
			for at := 4 + slots; at < len(view); at += 8 {
				view[at] += 100
			}
		}
		if err := restoreParts(co, w, got); err != nil {
			t.Fatalf("restore onto worker %d: %v", w, err)
		}
		back, err := fetchParts(co, w, parts)
		if err != nil {
			t.Fatalf("fetch back from worker %d: %v", w, err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("restore did not land on worker %d:\n got %v\nwant %v", w, back, got)
		}
	}
}

// TestStateMoveDroppedFetchRespReplays loses the FetchResp of a fetch
// that carries a commit: the coordinator retries the same token, the
// worker answers it from its idempotence cache, and the commit is
// applied once.
func TestStateMoveDroppedFetchRespReplays(t *testing.T) {
	nw := netfault.New(29)
	co := faultyStateCluster(t, nw, 300*time.Millisecond)
	w := co.Workers()[0]
	if _, err := co.call(w, StepReq{Superstep: 0, Rescatter: true}); err != nil {
		t.Fatalf("priming step on worker %d: %v", w, err)
	}
	co.owe([]int{w}, 0)
	nw.DropNext(w, netfault.Inbound, 1)
	parts := co.PartitionsOf(w)
	got, err := fetchParts(co, w, parts)
	if err != nil {
		t.Fatalf("fetch with a dropped FetchResp: %v", err)
	}
	want, err := fetchParts(co, w, parts)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed fetch answered %v, the next one %v (err %v)", got, want, err)
	}
	st := workerStats(t, co, w)
	if st.Replayed < 1 || st.CommitsCarried != 1 || st.CommitsExplicit != 0 {
		t.Errorf("worker %d: %d replays, %d commits carried, %d explicit; want >= 1, 1, 0", w, st.Replayed, st.CommitsCarried, st.CommitsExplicit)
	}
	if st := co.NetStats(); st.RPCRetries < 1 || st.Condemned != 0 {
		t.Errorf("NetStats = %+v, want at least one retry and nobody condemned", st)
	}
}

// TestStateMoveSeverRetries severs every one of a worker's conns
// immediately before a fetch: it rides the worker's redial.
func TestStateMoveSeverRetries(t *testing.T) {
	nw := netfault.New(31)
	co := faultyStateCluster(t, nw, 300*time.Millisecond)
	fetchUnder(t, co, func(w int) { nw.Sever(w) })
}

// TestStateMoveDelayBurst delays every frame of the worker under the
// call timeout: pure latency, and the fetch completes on its first
// attempt.
func TestStateMoveDelayBurst(t *testing.T) {
	nw := netfault.New(37)
	co := faultyStateCluster(t, nw, 2*time.Second)
	fetchUnder(t, co, func(w int) {
		f := netfault.Faults{DelayP: 1, Delay: 50 * time.Millisecond}
		nw.SetFaults(w, netfault.Inbound, f)
		nw.SetFaults(w, netfault.Outbound, f)
	})
	if st := co.NetStats(); st.RPCRetries != 0 {
		t.Errorf("NetStats.RPCRetries = %d, want 0: the delay stayed under the call timeout", st.RPCRetries)
	}
}

// TestStateMovePartitionSurfacesWorkerFailure partitions a worker
// beyond the suspicion grace: the snapshot's fetch must surface as a
// typed, recoverable *exec.WorkerFailure naming the worker and its
// partitions, with the worker condemned.
func TestStateMovePartitionSurfacesWorkerFailure(t *testing.T) {
	nw := netfault.New(41)
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.CallTimeout = 200 * time.Millisecond
		c.SuspicionGrace = 600 * time.Millisecond
		c.ReconnectGrace = 30 * time.Second
		c.LivenessWindow = 30 * time.Second
	})
	job, err := NewJob(co, Spec{Name: "cc-partition", Kind: KindCC, Graph: ccTestGraph()})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	w := co.Workers()[0]
	wantParts := append([]int(nil), co.PartitionsOf(w)...)

	nw.Partition(w)
	var buf bytes.Buffer
	err = job.SnapshotTo(&buf)
	var wf *exec.WorkerFailure
	if !errors.As(err, &wf) {
		t.Fatalf("snapshot under partition: err = %v, want *exec.WorkerFailure", err)
	}
	if !reflect.DeepEqual(wf.Workers, []int{w}) {
		t.Fatalf("WorkerFailure.Workers = %v, want [%d]", wf.Workers, w)
	}
	sort.Ints(wf.Partitions)
	if !reflect.DeepEqual(wf.Partitions, wantParts) {
		t.Fatalf("WorkerFailure.Partitions = %v, want %v", wf.Partitions, wantParts)
	}
	if st := co.NetStats(); st.Condemned < 1 {
		t.Fatalf("NetStats.Condemned = %d, want >= 1", st.Condemned)
	}
}

// TestStateMoveChaosCheckpointConverges is the end-to-end gate: the
// checkpoint policy snapshots every superstep while scripted severs,
// drops and delay bursts land inside the grace window — zero recovery
// rounds, ground-truth convergence.
func TestStateMoveChaosCheckpointConverges(t *testing.T) {
	g := ccTestGraph()
	want := ref.ConnectedComponents(g)
	nw := netfault.New(43)
	co := startTestCluster(t, 3, 6, blipConfig(nw))
	job, err := NewJob(co, Spec{Name: "cc-sm-chaos", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{
		Name:     "cc-sm-chaos",
		Step:     job.Step,
		Done:     iterate.DeltaDone(job.WorksetLen),
		Job:      job,
		Policy:   recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()),
		Cluster:  co,
		Injector: DetectFailures(co, blipSchedule(nw)),
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failures != 0 {
		t.Fatalf("transient blips caused %d recovery round(s), want 0", res.Failures)
	}
	if st := co.NetStats(); st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0", st.Condemned)
	}
	got, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components diverged:\n got %v\nwant %v", got, want)
	}
}
