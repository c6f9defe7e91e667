package proc

// protocol_test.go pins the superstep protocol's cost and its
// exactly-once property against real worker processes: a failure-free
// superstep is one request per worker and no CommitReq at all, and a
// commit carried by a request that the network makes the driver send
// twice is applied once. The boundary cells — a checkpoint, a Release
// and a SIGKILL that find a commit owed — are in equivalence_test.go.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/exec"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// workerStats asks worker w for its counters. The StatsReq settles
// whatever w is still owed, so callers fetch results first if they want
// to see that commit carried.
func workerStats(t *testing.T, co *Coordinator, w int) WorkerStats {
	t.Helper()
	resp, err := co.call(w, StatsReq{})
	if err != nil {
		t.Fatalf("StatsReq to worker %d: %v", w, err)
	}
	return resp.(WorkerStats)
}

// runGridCC runs CC over an 8x8 grid to its fixpoint on co, checks the
// labels against the reference and returns the run. The result fetch
// carries the last superstep's commit.
func runGridCC(t *testing.T, co *Coordinator, policy recovery.Policy, inj *netScript) *iterate.Result {
	t.Helper()
	g := gen.Grid(8, 8)
	job, err := NewJob(co, Spec{Name: "cc-protocol", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{Name: "cc-protocol", Step: job.Step, Done: iterate.DeltaDone(job.WorksetLen),
		Job: job, Policy: policy, Cluster: co}
	if inj != nil {
		loop.Injector = DetectFailures(co, inj)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if !reflect.DeepEqual(got, ref.ConnectedComponents(g)) {
		t.Fatal("components diverged from the reference")
	}
	return res
}

// TestOneRoundTripPerSuperstep is the protocol's cost, counted by the
// workers themselves: a failure-free run of N supersteps is N requests
// per worker plus the load and the result fetch (a ctrl RPC), every one
// of the N commits rode on a request that had to be sent anyway, and no
// CommitReq was sent at all. Under checkpoints every fifth superstep, a
// checkpoint — Setup's included — adds one request per worker, its
// fetch, which carries the commit it finds owed like a superstep.
func TestOneRoundTripPerSuperstep(t *testing.T) {
	t.Run("ctrl fetch", func(t *testing.T) {
		co := startTestCluster(t, eqWorkers, eqParts, nil)
		res := runGridCC(t, co, recovery.None{}, nil)
		n := uint64(res.Supersteps)
		if n < 10 || res.Ticks != res.Supersteps {
			t.Fatalf("%d supersteps in %d ticks: not the failure-free multi-superstep run this test needs", n, res.Ticks)
		}
		for _, w := range co.Workers() {
			st := workerStats(t, co, w)
			if st.Handled != n+2 {
				t.Errorf("worker %d handled %d requests for %d supersteps, want %d", w, st.Handled, n, n+2)
			}
			if st.CommitsCarried != n || st.CommitsExplicit != 0 || st.Replayed != 0 {
				t.Errorf("worker %d: %d commits carried, %d explicit, %d replays; want %d, 0, 0",
					w, st.CommitsCarried, st.CommitsExplicit, st.Replayed, n)
			}
		}
	})
	t.Run("checkpoint every 5", func(t *testing.T) {
		co := startTestCluster(t, eqWorkers, eqParts, nil)
		store := checkpoint.NewMemoryStore()
		res := runGridCC(t, co, recovery.NewCheckpoint(5, store), nil)
		n, c := uint64(res.Supersteps), uint64(store.Saves())
		if n < 10 || res.Ticks != res.Supersteps || c < 3 {
			t.Fatalf("%d supersteps in %d ticks, %d checkpoints: not the failure-free checkpointed run this test needs", n, res.Ticks, c)
		}
		for _, w := range co.Workers() {
			st := workerStats(t, co, w)
			if st.Handled != n+2+c {
				t.Errorf("worker %d handled %d requests for %d supersteps and %d checkpoints, want %d", w, st.Handled, n, c, n+2+c)
			}
			if st.CommitsCarried != n || st.CommitsExplicit != 0 || st.Replayed != 0 {
				t.Errorf("worker %d: %d commits carried, %d explicit, %d replays; want %d, 0, 0",
					w, st.CommitsCarried, st.CommitsExplicit, st.Replayed, n)
			}
		}
	})
}

// TestStepErrRespFailsNoWorker has a live worker refuse a superstep: a
// forged owed commit for worker 0 names a superstep it never ran, so it
// answers the StepReq with an ErrResp. That is no worker failure — the
// worker is alive and answered — so Step returns a plain error, nobody
// is condemned, and both processes stay alive and answer. Both get an
// AbortReq, the refusing worker included: each handled the load, three
// StepReqs and the abort.
func TestStepErrRespFailsNoWorker(t *testing.T) {
	co := startTestCluster(t, eqWorkers, eqParts, nil)
	job, err := NewJob(co, Spec{Name: "errresp", Kind: KindCC, Graph: gen.Grid(8, 8)})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	for s := range 2 {
		if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
			t.Fatalf("superstep %d: %v", s, err)
		}
	}
	condemned := co.NetStats().Condemned
	co.mu.Lock()
	co.procs[0].owed = Owed{Superstep: 99, Set: true}
	co.mu.Unlock()
	_, err = job.Step(&iterate.Context{Superstep: 2})
	var wf *exec.WorkerFailure
	if err == nil || errors.As(err, &wf) {
		t.Fatalf("Step after a forged commit: err %v, want a plain error, not a *exec.WorkerFailure", err)
	}
	if got := co.NetStats().Condemned; got != condemned {
		t.Errorf("NetStats.Condemned went from %d to %d: a worker that answered was condemned", condemned, got)
	}
	for _, w := range []int{0, 1} {
		// Nothing is owed after the refused step, so the stats read
		// settles nothing; it does not count itself.
		if st := workerStats(t, co, w); st.Handled != 5 {
			t.Errorf("worker %d handled %d requests, want 5: load, three steps, the abort", w, st.Handled)
		}
		co.mu.Lock()
		gone := co.procs[w] == nil || co.procs[w].goneLocked()
		co.mu.Unlock()
		if gone || !co.IsAlive(w) {
			t.Errorf("worker %d: process gone %v, member alive %v; want its process kept", w, gone, co.IsAlive(w))
			continue
		}
		if _, err := co.call(w, PingReq{}); err != nil {
			t.Errorf("worker %d no longer answers: %v", w, err)
		}
	}
}

// TestCompensationCarriesOwedCommit fails worker 1 at a superstep
// boundary, when the survivor is owed the commit of the superstep it
// just answered, and compensates. The survivor's CompensateReq carries
// that commit, as a StepReq would: across the whole run no worker
// settles a commit with a CommitReq of its own, and the survivor carried
// every one of its commits.
func TestCompensationCarriesOwedCommit(t *testing.T) {
	g := gen.Grid(8, 8)
	for kind, at := range map[string]int{KindCC: 1, KindPageRank: 2} {
		t.Run(kind, func(t *testing.T) {
			got := runProc(t, kind, g, recovery.Optimistic{}, boundaryKill(t, at, false))
			if got.res.Failures != 1 {
				t.Fatalf("%d failures struck, want 1", got.res.Failures)
			}
			for w, st := range got.stats {
				if st.CommitsExplicit != 0 {
					t.Errorf("worker %d settled %d commits explicitly, want 0", w, st.CommitsExplicit)
				}
			}
			if st := got.stats[0]; st.CommitsCarried != uint64(got.supersteps) {
				t.Errorf("the survivor carried %d commits over %d supersteps", st.CommitsCarried, got.supersteps)
			}
		})
	}
}

// TestOwedCommitAppliedOnceUnderRetries makes the network lose a frame
// of a request that carries a commit, so the driver sends the request
// again. Either way the run must take the supersteps and messages of an
// undisturbed one, with zero recovery rounds, and every worker must
// have committed each superstep once: N commits for N supersteps, none
// settled explicitly.
func TestOwedCommitAppliedOnceUnderRetries(t *testing.T) {
	quiet := func(nw *netfault.Network) func(*Config) {
		return func(c *Config) {
			c.NetFault = nw
			c.CallTimeout = 300 * time.Millisecond
			c.SuspicionGrace = 10 * time.Second
			c.ReconnectGrace = 20 * time.Second
			c.StragglerMin = 20 * time.Second
			// Keep the beat stream quiet so the scripted drop hits the frame
			// it is aimed at, not a heartbeat.
			c.Heartbeat = 5 * time.Second
			c.LivenessWindow = 30 * time.Second
		}
	}
	clean := runGridCC(t, startTestCluster(t, eqWorkers, eqParts, nil), recovery.None{}, nil)

	// At the boundary after superstep 3 worker 1's next frame is lost: the
	// StepResp of superstep 4, whose request carried commit 3, or the
	// FetchResp of the checkpoint fetch that carries it instead. Either is
	// answered from the idempotence cache on the retry.
	for name, policy := range map[string]func() recovery.Policy{
		"dropped StepResp, same-token retry":  func() recovery.Policy { return recovery.None{} },
		"dropped FetchResp, same-token retry": func() recovery.Policy { return recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()) },
	} {
		t.Run(name, func(t *testing.T) {
			nw := netfault.New(5)
			co := startTestCluster(t, eqWorkers, eqParts, quiet(nw))
			res := runGridCC(t, co, policy(), scriptNet(map[int]func(){
				3: func() { nw.DropNext(1, netfault.Inbound, 1) },
			}))
			if res.Failures != 0 || res.Supersteps != clean.Supersteps || res.Ticks != clean.Ticks {
				t.Fatalf("%d failures, %d supersteps in %d ticks; an undisturbed run takes %d in %d with none",
					res.Failures, res.Supersteps, res.Ticks, clean.Supersteps, clean.Ticks)
			}
			for i, s := range res.Samples {
				if s.Stats.Messages != clean.Samples[i].Stats.Messages {
					t.Fatalf("superstep %d sent %d messages, undisturbed %d: a superstep was lost or applied twice",
						s.Superstep, s.Stats.Messages, clean.Samples[i].Stats.Messages)
				}
			}
			if st := co.NetStats(); st.RPCRetries < 1 || st.Condemned != 0 {
				t.Fatalf("NetStats = %+v, want at least one retry and nobody condemned: the drop missed", st)
			}
			n := uint64(res.Supersteps)
			for _, w := range co.Workers() {
				st := workerStats(t, co, w)
				if st.CommitsCarried != n || st.CommitsExplicit != 0 {
					t.Errorf("worker %d committed %d carried + %d explicit for %d supersteps, want each exactly once and carried",
						w, st.CommitsCarried, st.CommitsExplicit, n)
				}
				if w == 1 && st.Replayed == 0 {
					t.Error("worker 1 answered no request from its idempotence cache")
				}
			}
		})
	}
}
