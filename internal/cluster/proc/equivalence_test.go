package proc

// equivalence_test.go holds the proc path to its specification: a job
// run across worker processes must be observationally equal to the
// in-process columnar run of the same job on the same graph object —
// same labels, ranks within float-summation noise, the same committed
// supersteps up to the one priming step — failure-free, and after a
// real mid-superstep SIGKILL under every recovery policy. Two proc runs
// of the same input must agree bit for bit. The boundary cells hold the
// deferred commit to the reference and to the eager protocol's counts
// when a checkpoint, a Release or a SIGKILL finds every worker owed one.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
)

const (
	eqParts   = 4
	eqWorkers = 2
	eqEpsilon = 1e-12 // L1 rank delta at which PageRank stops
)

func equivalenceGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{"twitter": gen.Twitter(300, 7), "grid": gen.Grid(8, 8)}
}

// procRun is one proc-mode job run to convergence: its result and the
// counts that must repeat.
type procRun struct {
	labels     map[graph.VertexID]graph.VertexID
	ranks      map[graph.VertexID]float64
	supersteps int
	messages   int64
	res        *iterate.Result
	// stats holds every final worker's counters.
	stats map[int]WorkerStats
}

// procScript is what happens to worker 1 during a run.
type procScript func(co *Coordinator) failure.Injector

func undisturbed(*Coordinator) failure.Injector { return nil }

// midStepKill SIGKILLs worker 1 while superstep at is in flight.
func midStepKill(at int) procScript {
	return func(*Coordinator) failure.Injector { return failure.NewScripted(nil).AtMidStep(at, 0, 1) }
}

// atBoundary is a failure.Injector that acts once, at the boundary after
// superstep at — every worker answered it, so its commit is owed to each
// and none has been told — and reports as dead the workers act returns.
type atBoundary struct {
	at   int
	act  func() []int
	done bool
}

func (b *atBoundary) FailuresAt(superstep, _ int, _ []int) []int {
	if superstep != b.at || b.done {
		return nil
	}
	b.done = true
	return b.act()
}

// assertOwed demands the premise of every boundary cell: the driver
// decided superstep at committed and has told no worker yet.
func assertOwed(t *testing.T, co *Coordinator, at int) {
	t.Helper()
	co.mu.Lock()
	defer co.mu.Unlock()
	for w, p := range co.procs {
		if want := (Owed{Superstep: at, Set: true}); p.owed != want {
			t.Errorf("at the boundary after superstep %d worker %d is owed %+v, want %+v", at, w, p.owed, want)
		}
	}
}

// boundaryKill fails worker 1 (a SIGKILL) at the boundary after
// superstep at. settled pays every worker's debt first — a ping cannot
// carry a commit — so the victim dies owing nothing instead of owing at.
func boundaryKill(t *testing.T, at int, settled bool) procScript {
	return func(co *Coordinator) failure.Injector {
		return &atBoundary{at: at, act: func() []int {
			assertOwed(t, co, at)
			if settled {
				for _, w := range co.Workers() {
					if _, err := co.call(w, PingReq{}); err != nil {
						t.Errorf("settling worker %d: %v", w, err)
					}
				}
			}
			return []int{1}
		}}
	}
}

// releaseAt releases worker 1 at the boundary after superstep at: its
// state migrates while every commit of at is owed.
func releaseAt(t *testing.T, at int) procScript {
	return func(co *Coordinator) failure.Injector {
		return &atBoundary{at: at, act: func() []int {
			assertOwed(t, co, at)
			if err := co.Release(1); err != nil {
				t.Errorf("Release(1) at the boundary after superstep %d: %v", at, err)
			}
			return nil
		}}
	}
}

// procRig is a proc run about to start, for a test to observe or
// disturb: hooks on the loop, a decorated job, a supervisor.
type procRig struct {
	co   *Coordinator
	job  *Job
	loop *iterate.Loop
}

// runProc runs kind over g on a fresh 2-worker cluster under script.
func runProc(t *testing.T, kind string, g *graph.Graph, policy recovery.Policy, script procScript, arm ...func(*procRig)) procRun {
	t.Helper()
	return runProcOn(t, startTestCluster(t, eqWorkers, eqParts, nil), kind, g, policy, script, arm...)
}

// runProcOn is runProc on a cluster the test configured; it closes it.
func runProcOn(t *testing.T, co *Coordinator, kind string, g *graph.Graph, policy recovery.Policy, script procScript, arm ...func(*procRig)) procRun {
	t.Helper()
	defer co.Close()
	job, err := NewJob(co, Spec{Name: "eq-" + kind, Kind: kind, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{Name: "eq-" + kind, Step: job.Step, Job: job, Policy: policy, Cluster: co, MaxTicks: 2000}
	if kind == KindCC {
		loop.Done = iterate.DeltaDone(job.WorksetLen)
	} else {
		loop.Done = iterate.BulkDone(1000, func(int) bool { return job.LastL1() < eqEpsilon })
	}
	loop.Injector = DetectFailures(co, script(co))
	for _, f := range arm {
		f(&procRig{co: co, job: job, loop: loop})
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	run := procRun{supersteps: res.Supersteps, res: res, stats: map[int]WorkerStats{}}
	for _, s := range res.Samples {
		run.messages += s.Stats.Messages
	}
	if kind == KindCC {
		run.labels, err = job.Components()
	} else {
		run.ranks, err = job.Ranks()
	}
	if err != nil {
		t.Fatalf("fetching results: %v", err)
	}
	for _, w := range co.Workers() {
		st, err := co.call(w, StatsReq{})
		if err != nil {
			t.Fatalf("stats of worker %d: %v", w, err)
		}
		run.stats[w] = st.(WorkerStats)
	}
	return run
}

// runInProc is the in-process run of the same job — the specification a
// proc run is held to — under inj.
func runInProc(t *testing.T, kind string, g *graph.Graph, inj failure.Injector) procRun {
	t.Helper()
	loop := &iterate.Loop{Name: "ref-" + kind, Policy: recovery.Optimistic{}, Cluster: cluster.New(eqWorkers, eqParts), Injector: inj}
	var result func() procRun
	if kind == KindCC {
		job := cc.NewColumnar(g, eqParts)
		loop.Step, loop.Job, loop.Done = job.Step, job, iterate.DeltaDone(job.WorksetLen)
		result = func() procRun { return procRun{labels: job.Components()} }
	} else {
		job := pagerank.NewColumnar(g, eqParts, 0, nil)
		loop.Step, loop.Job = job.Step, job
		loop.Done = iterate.BulkDone(1000, func(int) bool { return job.LastL1() < eqEpsilon })
		result = func() procRun { return procRun{ranks: job.RankVector()} }
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	run := result()
	run.supersteps, run.res = res.Supersteps, res
	for _, s := range res.Samples {
		run.messages += s.Stats.Messages
	}
	return run
}

func rankL1(a, b map[graph.VertexID]float64) (l1 float64) {
	for v, r := range a {
		l1 += math.Abs(r - b[v])
	}
	return l1
}

func rankSum(ranks map[graph.VertexID]float64) (sum float64) {
	for _, r := range ranks {
		sum += r
	}
	return sum
}

func TestProcCCMatchesInProcess(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		t.Run(name, func(t *testing.T) {
			ref := cc.NewColumnar(g, eqParts)
			loop := &iterate.Loop{Name: "ref", Step: ref.Step, Done: iterate.DeltaDone(ref.WorksetLen),
				Job: ref, Policy: recovery.None{}, Cluster: cluster.New(eqWorkers, eqParts)}
			res, err := loop.Run()
			if err != nil {
				t.Fatal(err)
			}
			var refMsgs int64
			for _, s := range res.Samples {
				refMsgs += s.Stats.Messages
			}
			want := ref.Components()

			clean := runProc(t, KindCC, g, recovery.None{}, undisturbed)
			if !reflect.DeepEqual(clean.labels, want) {
				t.Fatal("failure-free proc labels differ from the in-process run")
			}
			if clean.supersteps != res.Supersteps+1 {
				t.Errorf("proc committed %d supersteps, in-process %d (+1 priming)", clean.supersteps, res.Supersteps)
			}
			if clean.messages != refMsgs {
				t.Errorf("proc sent %d messages, in-process %d", clean.messages, refMsgs)
			}
			for _, tc := range recoveryMatrix {
				got := runProc(t, KindCC, g, tc.policy(), midStepKill(1))
				assertAbortedKill(t, got.res, 1)
				if !reflect.DeepEqual(got.labels, want) {
					t.Errorf("%s: labels after a mid-superstep SIGKILL differ from the in-process run", tc.name)
				}
			}
		})
	}
}

func TestProcPageRankMatchesInProcess(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		t.Run(name, func(t *testing.T) {
			ref := pagerank.NewColumnar(g, eqParts, 0, nil)
			loop := &iterate.Loop{Name: "ref", Step: ref.Step, Job: ref, Policy: recovery.None{},
				Cluster: cluster.New(eqWorkers, eqParts),
				Done:    iterate.BulkDone(1000, func(int) bool { return ref.LastL1() < eqEpsilon })}
			res, err := loop.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := ref.RankVector()

			check := func(what string, got procRun) {
				t.Helper()
				if l1 := rankL1(got.ranks, want); len(got.ranks) != len(want) || l1 > 1e-9 {
					t.Errorf("%s: proc ranks are L1 %.3g from the in-process run", what, l1)
				}
				if sum := rankSum(got.ranks); math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: proc ranks sum to %.12f", what, sum)
				}
			}
			clean := runProc(t, KindPageRank, g, recovery.None{}, undisturbed)
			check("failure-free", clean)
			if clean.supersteps != res.Supersteps+1 {
				t.Errorf("proc committed %d supersteps, in-process %d (+1 priming)", clean.supersteps, res.Supersteps)
			}
			for _, tc := range recoveryMatrix {
				got := runProc(t, KindPageRank, g, tc.policy(), midStepKill(2))
				assertAbortedKill(t, got.res, 1)
				check(tc.name+" after a mid-superstep SIGKILL", got)
			}

			// Same input, same placement: partial sums are folded and added
			// in fixed partition and worker order, so nothing may differ.
			again := runProc(t, KindPageRank, g, recovery.None{}, undisturbed)
			if again.supersteps != clean.supersteps || again.messages != clean.messages {
				t.Errorf("second run: %d supersteps %d messages, first %d and %d",
					again.supersteps, again.messages, clean.supersteps, clean.messages)
			}
			for v, r := range clean.ranks {
				if again.ranks[v] != r {
					t.Fatalf("rank of vertex %d differs between two proc runs: %v vs %v", v, r, again.ranks[v])
				}
			}
		})
	}
}

// owedCounts pins, per "kind/graph/cell", the committed supersteps and
// Σ messages of every boundary cell as the eager-commit protocol ran it
// (commit db47218, where each superstep ended with a CommitReq round):
// deferring the commit must not move a count. The four kill/optimistic
// cells were 17/1931, 5/4769, 143/32032 and 148/349872 there, when a
// compensation reseeded the lost partitions and primed the whole job
// again; they are now the in-process optimistic run's counts — one more
// superstep, plus the messages TestCompensatedRunEqualsInProcess accounts
// for — since workers renormalise and only the lost partitions re-send.
var owedCounts = map[string]struct {
	supersteps int
	messages   int64
}{
	"cc/grid/checkpoint": {16, 1792}, "cc/grid/release": {17, 2016},
	"cc/grid/kill/optimistic": {16, 1924}, "cc/grid/kill/checkpoint": {17, 2238}, "cc/grid/kill/restart": {16, 2238},
	"cc/twitter/checkpoint": {3, 2392}, "cc/twitter/release": {4, 4756},
	"cc/twitter/kill/optimistic": {4, 4769}, "cc/twitter/kill/checkpoint": {4, 4784}, "cc/twitter/kill/restart": {3, 4784},
	"pagerank/grid/checkpoint": {94, 21056}, "pagerank/grid/release": {95, 21280},
	"pagerank/grid/kill/optimistic": {144, 32358}, "pagerank/grid/kill/checkpoint": {95, 21504}, "pagerank/grid/kill/restart": {94, 21728},
	"pagerank/twitter/checkpoint": {55, 130020}, "pagerank/twitter/release": {56, 132384},
	"pagerank/twitter/kill/optimistic": {54, 128893}, "pagerank/twitter/kill/checkpoint": {56, 134748}, "pagerank/twitter/kill/restart": {55, 137112},
}

// TestOwedCommitBoundaryMatrix takes a checkpoint, a Release of worker
// 1 and a SIGKILL of worker 1 under every recovery policy at a superstep
// boundary — the moment every worker is owed the commit of the superstep
// it just answered — and holds each run to internal/algo/ref and to the
// counts of the protocol that committed eagerly. The kill runs twice,
// the second time with every debt settled first: a worker that dies
// owing nothing and one that dies owing a commit must be recovered to
// the same supersteps, ticks, messages and bits.
func TestOwedCommitBoundaryMatrix(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		labels := ref.ConnectedComponents(g)
		if name == "twitter" {
			// Directed: labels diffuse along out-edges only, so the fixpoint
			// is the in-process job's, not union-find's.
			inproc := cc.NewColumnar(g, eqParts)
			for inproc.WorksetLen() > 0 {
				if _, err := inproc.Step(nil); err != nil {
					t.Fatal(err)
				}
			}
			labels = inproc.Components()
		}
		ranks, _ := ref.PageRank(g, ref.PageRankOptions{})
		for kind, at := range map[string]int{KindCC: 1, KindPageRank: 2} {
			cell := func(what string, policy recovery.Policy, script procScript) procRun {
				t.Helper()
				key := kind + "/" + name + "/" + what
				got := runProc(t, kind, g, policy, script)
				if want := owedCounts[key]; got.supersteps != want.supersteps || got.messages != want.messages {
					t.Errorf("%s: %d supersteps, %d messages; the eager-commit protocol took %d and %d",
						key, got.supersteps, got.messages, want.supersteps, want.messages)
				}
				if kind == KindCC && !reflect.DeepEqual(got.labels, labels) {
					t.Errorf("%s: labels differ from the reference", key)
				}
				if l1 := rankL1(got.ranks, ranks); kind == KindPageRank && (len(got.ranks) != len(ranks) || l1 > 1e-9) {
					t.Errorf("%s: ranks are L1 %.3g from the reference", key, l1)
				}
				return got
			}
			cell("checkpoint", recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()), undisturbed)
			cell("release", recovery.None{}, releaseAt(t, at))
			for _, tc := range recoveryMatrix {
				owing := cell("kill/"+tc.name, tc.policy(), boundaryKill(t, at, false))
				settled := cell("kill/"+tc.name, tc.policy(), boundaryKill(t, at, true))
				if owing.res.Failures != 1 || settled.res.Failures != 1 {
					t.Errorf("%s/%s kill/%s: %d and %d failures struck, want 1 each",
						kind, name, tc.name, owing.res.Failures, settled.res.Failures)
				}
				if owing.res.Ticks != settled.res.Ticks || !reflect.DeepEqual(owing.labels, settled.labels) ||
					!reflect.DeepEqual(owing.ranks, settled.ranks) {
					t.Errorf("%s/%s kill/%s: a victim owed superstep %d (%d ticks) was not recovered like one owed nothing (%d ticks)",
						kind, name, tc.name, at, owing.res.Ticks, settled.res.Ticks)
				}
			}
		}
	}
}

// compensating decorates a proc job for the loop: before runs as a
// compensation starts, after when it has returned.
type compensating struct {
	*Job
	before func(lost []int)
	after  func(lost []int, err error)
}

func (c compensating) Compensate(lost []int) error {
	if c.before != nil {
		c.before(lost)
	}
	err := c.Job.Compensate(lost)
	if c.after != nil {
		c.after(lost, err)
	}
	return err
}

// relayedBytes adds up the exchange columns the driver relays that were
// sent by the listed partitions (nil: by any).
func relayedBytes(j *Job, from []int) (n int) {
	for _, cols := range j.inbox {
		for _, c := range cols {
			if from == nil || slices.Contains(from, c.Src) {
				n += len(c.Cols)
			}
		}
	}
	return n
}

// TestCompensatedRunEqualsInProcess is what a compensated proc run must
// equal: the in-process optimistic run under the same script — worker 1
// failed at a superstep boundary, or SIGKILLed mid-superstep — on both
// graphs. The same script is one superstep earlier in-process: proc step
// k folds what in-process superstep k-1 folds, the priming step being
// step 0, so a failure at step k compensates the state a failure at
// superstep k-1 does. (a) Same labels, ranks within 1e-9, exactly one
// more committed superstep (the priming one), and exactly the messages
// of the in-process run plus two expansions it does not make: the
// victim's last, whose columns died with it, and the last step's, which
// nobody folds. (b) Ranks sum to one after the compensation and after
// every superstep that follows it, not only at the end. (c) The survivor
// was not primed again — it ran the job's one priming step, the
// replacement none — and the compensation took in fewer column bytes,
// those of the lost partitions only, than a priming step ships.
func TestCompensatedRunEqualsInProcess(t *testing.T) {
	for name, g := range equivalenceGraphs() {
		for kind, at := range map[string]int{KindCC: 1, KindPageRank: 2} {
			for what, script := range map[string]struct {
				proc   procScript
				inproc *failure.Scripted
			}{
				"boundary": {boundaryKill(t, at, false), failure.NewScripted(nil).At(at-1, 1)},
				"midstep":  {midStepKill(at), failure.NewScripted(nil).AtMidStep(at-1, 0, 1)},
			} {
				t.Run(kind+"/"+name+"/"+what, func(t *testing.T) {
					want := runInProc(t, kind, g, script.inproc)
					var priming, resent int
					var wasted int64
					compensated := false
					got := runProc(t, kind, g, recovery.Optimistic{}, script.proc, func(r *procRig) {
						r.loop.Job = compensating{Job: r.job, after: func(lost []int, _ error) {
							resent, wasted = relayedBytes(r.job, lost), r.job.partials[1].messages
						}}
						r.loop.OnSample = func(s iterate.Sample) {
							if s.Tick == 0 {
								priming = relayedBytes(r.job, nil)
							}
							if compensated = compensated || s.Failed(); !compensated || kind != KindPageRank {
								return
							}
							ranks, err := r.job.Ranks()
							if sum := rankSum(ranks); err != nil || math.Abs(sum-1) > 1e-9 {
								t.Errorf("tick %d (superstep %d): ranks sum to %.12f after the compensation (err %v)", s.Tick, s.Superstep, sum, err)
							}
						}
					})
					if got.res.Failures != 1 || want.res.Failures != 1 {
						t.Fatalf("%d failures struck the proc run, %d the in-process run, want 1 each", got.res.Failures, want.res.Failures)
					}
					if kind == KindCC && !reflect.DeepEqual(got.labels, want.labels) {
						t.Error("labels differ from the in-process run")
					}
					if l1 := rankL1(got.ranks, want.ranks); kind == KindPageRank && (len(got.ranks) != len(want.ranks) || l1 > 1e-9) {
						t.Errorf("ranks are L1 %.3g from the in-process run", l1)
					}
					if got.supersteps != want.supersteps+1 {
						t.Errorf("proc committed %d supersteps, in-process %d (+1 priming)", got.supersteps, want.supersteps)
					}
					last := got.res.Samples[len(got.res.Samples)-1].Stats.Messages
					if got.messages != want.messages+wasted+last {
						t.Errorf("proc sent %d messages, in-process %d + %d the victim expanded in vain + %d of the last step",
							got.messages, want.messages, wasted, last)
					}
					if survivor, replacement := got.stats[0].Rescatters, got.stats[2].Rescatters; survivor != 1 || replacement != 0 {
						t.Errorf("survivor ran %d priming steps, replacement %d, want 1 and 0", survivor, replacement)
					}
					if resent == 0 || resent >= priming {
						t.Errorf("the compensation took in %d column bytes, a priming step ships %d", resent, priming)
					}
					t.Logf("proc %d supersteps %d messages, in-process %d and %d", got.supersteps, got.messages, want.supersteps, want.messages)
				})
			}
		}
	}
}

// TestAdoptionFallbackCompensates empties the spare pool, so the
// survivor adopts the lost partitions: its job is rebuilt, the columns it
// held go with the old one, and the compensation falls back to a global
// priming step — still renormalised, the scalar not depending on columns.
// The run converges to the failure-free result with ranks summing to one
// from the compensation on.
func TestAdoptionFallbackCompensates(t *testing.T) {
	g := equivalenceGraphs()["twitter"]
	for kind, at := range map[string]int{KindCC: 1, KindPageRank: 2} {
		t.Run(kind, func(t *testing.T) {
			want := runInProc(t, kind, g, nil)
			co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) { c.Cluster = []cluster.Option{cluster.WithSpares(0)} })
			compensated := false
			got := runProcOn(t, co, kind, g, recovery.Optimistic{}, boundaryKill(t, at, false), func(r *procRig) {
				r.loop.Supervisor = supervise.New(co, r.loop.Policy, r.loop.Injector, supervise.Config{})
				r.loop.OnSample = func(s iterate.Sample) {
					if compensated = compensated || s.Failed(); !compensated || kind != KindPageRank {
						return
					}
					ranks, err := r.job.Ranks()
					if sum := rankSum(ranks); err != nil || math.Abs(sum-1) > 1e-9 {
						t.Errorf("tick %d: ranks sum to %.12f after the compensation (err %v)", s.Tick, sum, err)
					}
				}
			})
			if got.res.Failures != 1 || len(got.stats) != 1 || got.stats[0].Rescatters != 2 {
				t.Fatalf("%d failures, final workers' stats %+v: want one failure and a lone survivor primed twice", got.res.Failures, got.stats)
			}
			if kind == KindCC && !reflect.DeepEqual(got.labels, want.labels) {
				t.Error("labels differ from the failure-free run")
			}
			if l1 := rankL1(got.ranks, want.ranks); kind == KindPageRank && (len(got.ranks) != len(want.ranks) || l1 > 1e-9) {
				t.Errorf("ranks are L1 %.3g from the failure-free run", l1)
			}
		})
	}
}

// TestWorkerDyingUnderCompensateIsFolded SIGKILLs the replacement while
// its CompensateReq is in flight — held on the wire long enough for the
// kill to land before it is read. That is a failure, not a fatal
// error: the loop, and the supervisor, fold it into the recovery, replace
// the replacement and compensate again.
func TestWorkerDyingUnderCompensateIsFolded(t *testing.T) {
	g := equivalenceGraphs()["twitter"]
	for kind, at := range map[string]int{KindCC: 1, KindPageRank: 2} {
		for _, supervised := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/supervised=%v", kind, supervised), func(t *testing.T) {
				want := runInProc(t, kind, g, nil)
				nw := netfault.New(11)
				co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) { c.NetFault = nw })
				var verdicts []error
				got := runProcOn(t, co, kind, g, recovery.Optimistic{}, boundaryKill(t, at, false), func(r *procRig) {
					if supervised {
						r.loop.Supervisor = supervise.New(co, r.loop.Policy, r.loop.Injector, supervise.Config{Spares: -1})
					}
					r.loop.Job = compensating{Job: r.job, before: func(lost []int) {
						if replacement := co.Owner(lost[0]); len(verdicts) == 0 {
							nw.SetFaults(replacement, netfault.Outbound, netfault.Faults{DelayP: 1, Delay: 200 * time.Millisecond})
							time.AfterFunc(20*time.Millisecond, func() { co.Kill(replacement) })
						}
					}, after: func(_ []int, err error) { verdicts = append(verdicts, err) }}
				})
				var wf *exec.WorkerFailure
				if len(verdicts) != 2 || !errors.As(verdicts[0], &wf) || !slices.Equal(wf.Workers, []int{2}) || verdicts[1] != nil {
					t.Fatalf("compensations returned %v, want a worker failure naming worker 2, then success", verdicts)
				}
				if got.res.Failures != 2 || co.IsAlive(2) || !co.IsAlive(3) {
					t.Fatalf("%d failures struck, worker 2 alive %v, worker 3 alive %v: want the victim and its first replacement dead",
						got.res.Failures, co.IsAlive(2), co.IsAlive(3))
				}
				if kind == KindCC && !reflect.DeepEqual(got.labels, want.labels) {
					t.Error("labels differ from the failure-free run")
				}
				l1, sum := rankL1(got.ranks, want.ranks), rankSum(got.ranks)
				if kind == KindPageRank && (len(got.ranks) != len(want.ranks) || l1 > 1e-9 || math.Abs(sum-1) > 1e-9) {
					t.Errorf("ranks are L1 %.3g from the failure-free run and sum to %.12f", l1, sum)
				}
			})
		}
	}
}

// TestProcCompensateDirectedPath is cc.TestCompensateDirectedPath across
// processes: on 0 → 1 → … → 39 a restored vertex gets its label back only
// if its surviving predecessor re-sends, which a compensation that
// re-announces nothing but the lost partitions and their out-neighbours'
// labels would never make it do.
func TestProcCompensateDirectedPath(t *testing.T) {
	b := graph.NewBuilder(true)
	for v := graph.VertexID(0); v < 39; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	for _, at := range []int{20, 35} {
		got := runProc(t, KindCC, g, recovery.Optimistic{}, boundaryKill(t, at, false))
		if got.res.Failures != 1 {
			t.Fatalf("at %d: %d failures struck, want 1", at, got.res.Failures)
		}
		for v, l := range got.labels {
			if l != 0 {
				t.Errorf("at %d: vertex %d ends in component %d, want 0", at, v, l)
			}
		}
	}
}

// TestEveryLandedFailureCondemnsOnce pins the failure accounting: a
// scripted boundary failure (Coordinator.Fail on a healthy worker) and
// a mid-superstep SIGKILL (noticed by the reaper or the broken RPC,
// then Failed by the driver) each count exactly once in
// NetStats().Condemned and leave exactly one condemn event.
func TestEveryLandedFailureCondemnsOnce(t *testing.T) {
	g := ccTestGraph()
	for name, sched := range map[string]*failure.Scripted{
		"boundary": failure.NewScripted(nil).At(1, 1),
		"midstep":  failure.NewScripted(nil).AtMidStep(1, 0, 1),
	} {
		t.Run(name, func(t *testing.T) {
			co := startTestCluster(t, 3, 6, nil)
			job, err := NewJob(co, Spec{Name: "cc-" + name, Kind: KindCC, Graph: g})
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			loop := &iterate.Loop{Name: "cc-" + name, Step: job.Step, Done: iterate.DeltaDone(job.WorksetLen),
				Job: job, Policy: recovery.Optimistic{}, Cluster: co, Injector: DetectFailures(co, sched)}
			res, err := loop.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Failures != 1 || co.IsAlive(1) {
				t.Fatalf("%d failures struck, worker 1 alive: %v — the failure never landed", res.Failures, co.IsAlive(1))
			}
			if st := co.NetStats(); st.Condemned != 1 {
				t.Errorf("NetStats.Condemned = %d, want exactly 1", st.Condemned)
			}
			condemns := 0
			for _, e := range co.Events() {
				if e.Kind == cluster.EventCondemn {
					condemns++
					if e.Worker != 1 {
						t.Errorf("condemn event for worker %d, want 1", e.Worker)
					}
				}
			}
			if condemns != 1 {
				t.Errorf("%d condemn events, want exactly 1", condemns)
			}
		})
	}
}

// TestRestoreFromRejectsUnfitSnapshots feeds RestoreFrom blobs that
// decode but do not fit the job — another kind, a currently-owned
// partition missing, a state view with the wrong slot count — and
// demands a typed *SnapshotError with no worker state overwritten: the
// first partition of every blob carries clobbered labels, and they must
// never show up.
func TestRestoreFromRejectsUnfitSnapshots(t *testing.T) {
	co := startTestCluster(t, 2, 4, nil)
	g := ccTestGraph()
	job, err := NewJob(co, Spec{Name: "cc-restore", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{Name: "cc-restore", Step: job.Step, Done: iterate.DeltaDone(job.WorksetLen),
		Job: job, Policy: recovery.None{}, Cluster: co}
	if _, err := loop.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := job.Components()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := job.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	good, err := decodeSnapshot(buf.Bytes())
	if err != nil || len(good.Parts) != 4 {
		t.Fatalf("snapshot: %d partitions, err %v", len(good.Parts), err)
	}
	// clobbered returns the snapshot with partition 0's labels changed —
	// a valid view, so only the blob's other defect can stop it landing.
	clobbered := func() JobSnapshot {
		s := JobSnapshot{Kind: good.Kind, Parts: append([]PartBlob(nil), good.Parts...)}
		view := bytes.Clone(s.Parts[0].Data)
		slots := int(binary.LittleEndian.Uint32(view))
		for at := 4 + slots; at < len(view); at += 8 {
			view[at] += 100
		}
		s.Parts[0].Data = view
		return s
	}
	cases := map[string]func(*JobSnapshot){
		"wrong kind":        func(s *JobSnapshot) { s.Kind = KindPageRank },
		"missing partition": func(s *JobSnapshot) { s.Parts = s.Parts[:3] },
		"slot count":        func(s *JobSnapshot) { s.Parts[3].Data = []byte{200, 0, 0, 0} },
	}
	for name, damage := range cases {
		snap := clobbered()
		damage(&snap)
		err := job.RestoreFrom(appendSnapshot(nil, snap))
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Errorf("%s: RestoreFrom err = %v, want *SnapshotError", name, err)
		}
		if got, err := job.Components(); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: worker state changed under a rejected restore (err %v)", name, err)
		}
	}
	// The undamaged clobbered blob does land: the check above is not vacuous.
	if err := job.RestoreFrom(appendSnapshot(nil, clobbered())); err != nil {
		t.Fatalf("fit snapshot rejected: %v", err)
	}
	if got, _ := job.Components(); reflect.DeepEqual(got, want) {
		t.Fatal("a fit snapshot with changed labels did not change worker state")
	}
}
