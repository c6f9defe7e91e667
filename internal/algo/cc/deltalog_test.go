package cc

import (
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

func TestDeltaCheckpointRecoveryIsCorrect(t *testing.T) {
	g := gen.Grid(10, 10)
	truth := ref.ConnectedComponents(g)
	for _, failAt := range []int{2, 8, 14} {
		inj := failure.NewScripted(nil).At(failAt, 1)
		pol := recovery.NewDeltaCheckpoint(1, checkpoint.NewMemoryStore())
		res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: pol})
		if err != nil {
			t.Fatalf("fail@%d: %v", failAt, err)
		}
		requireComponentsEqual(t, res.Components, truth)
		if res.Ticks != res.Supersteps+1 {
			t.Fatalf("fail@%d: delta rollback at k=1 should replay one superstep: ticks=%d supersteps=%d",
				failAt, res.Ticks, res.Supersteps)
		}
	}
}

// lollipop builds a dense blob with a chain hanging off it: the blob
// (most of the state) converges in a handful of supersteps, after which
// only the chain's vertices still update while full checkpoints keep
// re-writing the whole converged blob — the regime where delta logs
// crush full checkpoints.
func lollipop(blob, tail int) *graph.Graph {
	b := graph.NewBuilder(false)
	gen.ErdosRenyi(blob, 0.1, 3, false).Edges(func(e graph.Edge) {
		if e.Src < e.Dst { // undirected storage enumerates both directions
			b.AddEdge(e.Src, e.Dst)
		}
	})
	for i := 0; i < tail; i++ {
		from := graph.VertexID(blob + i - 1)
		if i == 0 {
			from = 0
		}
		b.AddEdge(from, graph.VertexID(blob+i))
	}
	return b.Build()
}

func TestDeltaCheckpointWritesLessThanFullCheckpoints(t *testing.T) {
	g := lollipop(2000, 60)
	full := recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	if _, err := Run(g, Options{Parallelism: 4, Policy: full}); err != nil {
		t.Fatal(err)
	}
	delta := recovery.NewDeltaCheckpoint(1, checkpoint.NewMemoryStore())
	delta.CompactEvery = 1 << 30 // no compaction: pure delta volume
	res, err := Run(g, Options{Parallelism: 4, Policy: delta})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, ref.ConnectedComponents(g))
	fb, db := full.Overhead().BytesWritten, delta.Overhead().BytesWritten
	if db >= fb/5 {
		t.Fatalf("delta log wrote %d bytes, full checkpoints %d — expected < 20%%", db, fb)
	}
}

func TestDeltaCheckpointCompaction(t *testing.T) {
	g := gen.Grid(12, 12)
	store := checkpoint.NewMemoryStore()
	pol := recovery.NewDeltaCheckpoint(1, store)
	pol.CompactEvery = 4
	inj := failure.NewScripted(nil).At(18, 2)
	res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, ref.ConnectedComponents(g))
	rec, ok, err := checkpoint.LoadCommitRecord(store, "connected-components")
	if err != nil || !ok {
		t.Fatalf("no committed chain: %v %v", ok, err)
	}
	if deltas := len(rec.Parts) - 1; deltas > 4 {
		t.Fatalf("chain grew past the compaction bound: %d deltas", deltas)
	}
}

func TestDeltaCheckpointDiskStore(t *testing.T) {
	g := gen.Grid(8, 8)
	store, err := checkpoint.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pol := recovery.NewDeltaCheckpoint(2, store)
	inj := failure.NewScripted(nil).At(6, 0)
	res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, ref.ConnectedComponents(g))
	if store.BytesWritten() == 0 {
		t.Fatal("disk store wrote no chain")
	}
}
