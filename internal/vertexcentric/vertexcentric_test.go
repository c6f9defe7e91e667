package vertexcentric

import (
	"bytes"
	"strings"
	"testing"

	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// maxProgram propagates the maximum vertex ID through the graph — a
// classic Pregel example whose fixpoint is easy to verify: every vertex
// ends with the maximum ID of its connected component.
func maxProgram(g *graph.Graph) Program[uint64, uint64] {
	return Program[uint64, uint64]{
		Name: "max-value",
		Init: func(v graph.VertexID) (uint64, []Outbound[uint64]) {
			var out []Outbound[uint64]
			for _, n := range g.OutNeighbors(v) {
				out = append(out, Outbound[uint64]{To: n, Msg: uint64(v)})
			}
			return uint64(v), out
		},
		Compute: func(v graph.VertexID, st uint64, msgs []uint64, send func(graph.VertexID, uint64)) (uint64, bool) {
			best := st
			for _, m := range msgs {
				if m > best {
					best = m
				}
			}
			if best == st {
				return st, false
			}
			for _, n := range g.OutNeighbors(v) {
				send(n, best)
			}
			return best, true
		},
		Combine: func(a, b uint64) uint64 {
			if a > b {
				return a
			}
			return b
		},
		Compensate: func(v graph.VertexID) uint64 { return uint64(v) },
		Reactivate: func(v graph.VertexID, st uint64, send func(graph.VertexID, uint64)) {
			for _, n := range g.OutNeighbors(v) {
				send(n, st)
			}
		},
	}
}

func maxTruth(g *graph.Graph) map[graph.VertexID]uint64 {
	comps := make(map[graph.VertexID]graph.VertexID)
	// The maximum per component: reuse min-label logic on negated IDs is
	// overkill; do a simple fixpoint over edges.
	for _, v := range g.Vertices() {
		comps[v] = v
	}
	for changed := true; changed; {
		changed = false
		g.Edges(func(e graph.Edge) {
			if comps[e.Src] > comps[e.Dst] {
				comps[e.Dst] = comps[e.Src]
				changed = true
			} else if comps[e.Dst] > comps[e.Src] {
				comps[e.Src] = comps[e.Dst]
				changed = true
			}
		})
	}
	out := make(map[graph.VertexID]uint64, len(comps))
	for v, c := range comps {
		out[v] = uint64(c)
	}
	return out
}

func checkStates(t *testing.T, got map[graph.VertexID]uint64, want map[graph.VertexID]uint64) {
	t.Helper()
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("vertex %d: state %d, want %d", v, got[v], w)
		}
	}
}

func TestMaxPropagationFailureFree(t *testing.T) {
	g, _ := gen.Demo()
	res, err := Run(maxProgram(g), g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkStates(t, res.States, maxTruth(g))
	if res.Failures != 0 {
		t.Fatal("unexpected failures")
	}
}

func TestMaxPropagationWithOptimisticRecovery(t *testing.T) {
	g := gen.Grid(9, 9)
	inj := failure.NewScripted(nil).At(2, 1).At(5, 0)
	res, err := Run(maxProgram(g), g, Options{Parallelism: 4, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 2 {
		t.Fatalf("failures = %d", res.Failures)
	}
	checkStates(t, res.States, maxTruth(g))
}

func TestCombinerReducesMessageVolume(t *testing.T) {
	g := gen.Star(40)
	prog := maxProgram(g)
	withComb, err := Run(prog, g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog.Combine = nil
	without, err := Run(prog, g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Same fixpoint either way.
	checkStates(t, withComb.States, maxTruth(g))
	checkStates(t, without.States, maxTruth(g))
	// The combiner collapses the hub's gathered messages: updates
	// (gather outputs) must not exceed the uncombined run.
	var updWith, updWithout int64
	for _, s := range withComb.Samples {
		updWith += s.Stats.Updates
	}
	for _, s := range without.Samples {
		updWithout += s.Stats.Updates
	}
	if updWith > updWithout {
		t.Fatalf("combiner increased work: %d > %d", updWith, updWithout)
	}
}

func TestCheckpointRecovery(t *testing.T) {
	g := gen.Grid(8, 8)
	inj := failure.NewScripted(nil).At(4, 2)
	res, err := Run(maxProgram(g), g, Options{
		Parallelism: 4,
		Injector:    inj,
		Policy:      recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStates(t, res.States, maxTruth(g))
	if res.Ticks <= res.Supersteps {
		t.Fatal("rollback should add re-executed attempts")
	}
}

func TestMissingCompensationIsAnError(t *testing.T) {
	g, _ := gen.Demo()
	prog := maxProgram(g)
	prog.Compensate = nil
	inj := failure.NewScripted(nil).At(1, 0)
	_, err := Run(prog, g, Options{Parallelism: 4, Injector: inj})
	if err == nil || !strings.Contains(err.Error(), "no compensation function") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunnerSnapshotRoundTrip(t *testing.T) {
	g, _ := gen.Demo()
	r := NewRunner(maxProgram(g), g, 4)
	if _, err := r.Step(nil); err != nil {
		t.Fatal(err)
	}
	var job recovery.Job = r // compile-time interface check
	var snap bytes.Buffer
	if err := job.SnapshotTo(&snap); err != nil {
		t.Fatal(err)
	}
	before := r.StateMap()
	beforeInbox := r.InboxLen()
	if _, err := r.Step(nil); err != nil {
		t.Fatal(err)
	}
	if err := job.RestoreFrom(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	checkStates(t, r.StateMap(), before)
	if r.InboxLen() != beforeInbox {
		t.Fatalf("inbox %d, want %d", r.InboxLen(), beforeInbox)
	}
}

// TestCompensateDirectedPath pins which survivors the compensation
// re-activates on a directed graph: those with an out-edge INTO a lost
// partition. On the path 39 → 38 → … → 0 the maximum flows down from
// vertex 39, so a restored vertex can only be repaired by its surviving
// predecessor re-sending; re-activating the targets of the lost
// vertices' out-edges instead left it at its own ID.
func TestCompensateDirectedPath(t *testing.T) {
	b := graph.NewBuilder(true)
	for v := graph.VertexID(0); v+1 < 40; v++ {
		b.AddEdge(v+1, v)
	}
	g := b.Build()
	for _, at := range []int{20, 35} {
		for victim := 0; victim < 2; victim++ {
			res, err := Run(maxProgram(g), g, Options{Parallelism: 4, Workers: 2, Policy: recovery.Optimistic{},
				Injector: failure.NewScripted(nil).At(at, victim)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 1 {
				t.Fatalf("At(%d,%d): %d failures struck, want 1", at, victim, res.Failures)
			}
			wrong := 0
			for _, st := range res.States {
				if st != 39 {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("At(%d,%d): %d of %d states wrong after compensation", at, victim, wrong, len(res.States))
			}
		}
	}
}
