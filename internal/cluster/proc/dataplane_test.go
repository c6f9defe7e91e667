package proc

// dataplane_test.go exercises the chunked data plane under network
// fault injection: chunk reassembly across many small frames, dropped
// chunks mid-stream (sequence-gap detection plus whole-transfer retry),
// severed data connections, delay bursts, and the hard-failure path
// where an exhausted retry budget surfaces as a recoverable worker
// failure.

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

// fetchViaCtrl reads partition state over the legacy monolithic ctrl
// RPC — the reference the chunked path must reproduce byte for byte.
func fetchViaCtrl(t *testing.T, co *Coordinator, w int, parts []int) []PartBlob {
	t.Helper()
	resp, err := co.call(w, FetchReq{Parts: parts})
	if err != nil {
		t.Fatalf("ctrl fetch from worker %d: %v", w, err)
	}
	return resp.(FetchResp).Parts
}

// TestDataPlaneChunkedReassembly pins partial-delivery reassembly: with
// a 2-vertex chunk budget every fetch spans many DataChunk frames, and
// the reassembled state views must equal the monolithic ctrl-RPC fetch
// exactly. The restore direction then writes mutated state back in
// chunks and reads it again.
func TestDataPlaneChunkedReassembly(t *testing.T) {
	co := startTestCluster(t, 2, 4, func(c *Config) {
		c.ChunkVertices = 2
	})
	g := ccTestGraph()
	if _, err := NewJob(co, Spec{Name: "cc-reassembly", Kind: KindCC, Graph: g}); err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if co.cfg.DataConns < 1 {
		t.Fatal("data plane not enabled under the default config")
	}
	for _, w := range co.Workers() {
		parts := co.PartitionsOf(w)
		want := fetchViaCtrl(t, co, w, parts)
		got, err := co.fetchState(w, parts)
		if err != nil {
			t.Fatalf("data fetch from worker %d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunked fetch diverged from monolithic fetch for worker %d:\n got %v\nwant %v", w, got, want)
		}

		// Mutate every label (the low byte of each value, past the slot
		// count and presence bytes of the view), push it back chunked,
		// and read it again.
		for i := range got {
			view := got[i].Data
			slots := int(binary.LittleEndian.Uint32(view))
			for at := 4 + slots; at < len(view); at += 8 {
				view[at] += 100
			}
		}
		if err := co.restoreState(w, got); err != nil {
			t.Fatalf("data restore onto worker %d: %v", w, err)
		}
		back := fetchViaCtrl(t, co, w, parts)
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("chunked restore did not land on worker %d:\n got %v\nwant %v", w, back, got)
		}
	}
}

// TestDataPlaneDroppedChunkRetries drops exactly one inbound frame
// mid-fetch: the sequence gap must be detected (never silently
// reassembled with missing vertices) and the whole idempotent transfer
// retried on a fresh connection, completing with zero condemns.
func TestDataPlaneDroppedChunkRetries(t *testing.T) {
	nw := netfault.New(29)
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.ChunkVertices = 2
		c.CallTimeout = 500 * time.Millisecond
		c.SuspicionGrace = 10 * time.Second
		c.ReconnectGrace = 20 * time.Second
		// Keep the beat stream quiet so the scripted drop hits a data
		// chunk, not a heartbeat frame.
		c.Heartbeat = 5 * time.Second
		c.LivenessWindow = 30 * time.Second
	})
	g := ccTestGraph()
	if _, err := NewJob(co, Spec{Name: "cc-dropchunk", Kind: KindCC, Graph: g}); err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	w := co.Workers()[0]
	parts := co.PartitionsOf(w)
	want := fetchViaCtrl(t, co, w, parts)

	// Drop the second inbound frame from w: the fetch stream's first or
	// second chunk, depending on interleaving — either way a mid-stream
	// loss the reassembly must not paper over.
	nw.DropNext(w, netfault.Inbound, 2)
	got, err := co.fetchState(w, parts)
	if err != nil {
		t.Fatalf("data fetch with dropped chunk: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch with dropped chunk diverged:\n got %v\nwant %v", got, want)
	}
	if st := co.NetStats(); st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0 — the drop was within grace", st.Condemned)
	}
}

// TestDataPlaneSeverRetries severs every one of a worker's connections
// (ctrl, beat and the pooled data conns) immediately before a chunked
// fetch: the transfer must ride the worker's redial and complete
// within the grace window with zero condemns.
func TestDataPlaneSeverRetries(t *testing.T) {
	nw := netfault.New(31)
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.ChunkVertices = 2
		c.CallTimeout = 300 * time.Millisecond
		c.SuspicionGrace = 10 * time.Second
		c.ReconnectGrace = 20 * time.Second
		c.LivenessWindow = 30 * time.Second
	})
	g := ccTestGraph()
	if _, err := NewJob(co, Spec{Name: "cc-sever", Kind: KindCC, Graph: g}); err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	w := co.Workers()[0]
	parts := co.PartitionsOf(w)
	want := fetchViaCtrl(t, co, w, parts)

	nw.Sever(w)
	got, err := co.fetchState(w, parts)
	if err != nil {
		t.Fatalf("data fetch across a sever: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch across a sever diverged:\n got %v\nwant %v", got, want)
	}
	if st := co.NetStats(); st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0 — the sever was within grace", st.Condemned)
	}
}

// TestDataPlaneDelayBurst runs a chunked fetch with every frame of the
// worker delayed under the per-chunk call timeout: pure latency, the
// transfer completes on the first attempt and nothing is condemned.
func TestDataPlaneDelayBurst(t *testing.T) {
	nw := netfault.New(37)
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.ChunkVertices = 2
		c.CallTimeout = 2 * time.Second
		c.SuspicionGrace = 10 * time.Second
		c.LivenessWindow = 30 * time.Second
	})
	g := ccTestGraph()
	if _, err := NewJob(co, Spec{Name: "cc-delay", Kind: KindCC, Graph: g}); err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	w := co.Workers()[0]
	parts := co.PartitionsOf(w)
	want := fetchViaCtrl(t, co, w, parts)

	f := netfault.Faults{DelayP: 1, Delay: 50 * time.Millisecond}
	nw.SetFaults(w, netfault.Inbound, f)
	nw.SetFaults(w, netfault.Outbound, f)
	defer func() {
		nw.SetFaults(w, netfault.Inbound, netfault.Faults{})
		nw.SetFaults(w, netfault.Outbound, netfault.Faults{})
	}()
	got, err := co.fetchState(w, parts)
	if err != nil {
		t.Fatalf("data fetch under delay burst: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch under delay diverged:\n got %v\nwant %v", got, want)
	}
	if st := co.NetStats(); st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0", st.Condemned)
	}
}

// TestDataPlanePartitionSurfacesWorkerFailure partitions a worker
// beyond the suspicion grace and demands the failed chunked snapshot
// fetch surface as a typed, recoverable *exec.WorkerFailure — the same
// contract the monolithic path honours — with the worker condemned.
func TestDataPlanePartitionSurfacesWorkerFailure(t *testing.T) {
	nw := netfault.New(41)
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.ChunkVertices = 2
		c.CallTimeout = 200 * time.Millisecond
		c.SuspicionGrace = 600 * time.Millisecond
		c.ReconnectGrace = 30 * time.Second
		c.LivenessWindow = 30 * time.Second
	})
	g := ccTestGraph()
	job, err := NewJob(co, Spec{Name: "cc-partition", Kind: KindCC, Graph: g})
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

// TestDataPlaneChaosCheckpointConverges is the end-to-end gate: the
// checkpoint policy snapshots every superstep over the data plane with
// a tiny chunk budget while scripted severs, drops and delay bursts
// land inside the grace window — zero recovery rounds, ground-truth
// convergence.
func TestDataPlaneChaosCheckpointConverges(t *testing.T) {
	g := ccTestGraph()
	want := ref.ConnectedComponents(g)
	nw := netfault.New(43)
	co := startTestCluster(t, 3, 6, func(c *Config) {
		blipConfig(nw)(c)
		c.ChunkVertices = 2
	})
	job, err := NewJob(co, Spec{Name: "cc-dp-chaos", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{
		Name:     "cc-dp-chaos",
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
