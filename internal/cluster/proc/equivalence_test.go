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
	"math"
	"reflect"
	"testing"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
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

// runProc runs kind over g on a fresh 2-worker cluster under script.
func runProc(t *testing.T, kind string, g *graph.Graph, policy recovery.Policy, script procScript) procRun {
	t.Helper()
	co := startTestCluster(t, eqWorkers, eqParts, nil)
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
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	run := procRun{supersteps: res.Supersteps, res: res}
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
// deferring the commit must not move a count.
var owedCounts = map[string]struct {
	supersteps int
	messages   int64
}{
	"cc/grid/checkpoint": {16, 1792}, "cc/grid/release": {17, 2016},
	"cc/grid/kill/optimistic": {17, 1931}, "cc/grid/kill/checkpoint": {17, 2238}, "cc/grid/kill/restart": {16, 2238},
	"cc/twitter/checkpoint": {3, 2392}, "cc/twitter/release": {4, 4756},
	"cc/twitter/kill/optimistic": {5, 4769}, "cc/twitter/kill/checkpoint": {4, 4784}, "cc/twitter/kill/restart": {3, 4784},
	"pagerank/grid/checkpoint": {94, 21056}, "pagerank/grid/release": {95, 21280},
	"pagerank/grid/kill/optimistic": {143, 32032}, "pagerank/grid/kill/checkpoint": {95, 21504}, "pagerank/grid/kill/restart": {94, 21728},
	"pagerank/twitter/checkpoint": {55, 130020}, "pagerank/twitter/release": {56, 132384},
	"pagerank/twitter/kill/optimistic": {148, 349872}, "pagerank/twitter/kill/checkpoint": {56, 134748}, "pagerank/twitter/kill/restart": {55, 137112},
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
