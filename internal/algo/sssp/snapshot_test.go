package sssp

import (
	"bytes"
	"math/rand"
	"testing"

	"optiflow/internal/algo/minfold"
	"optiflow/internal/graph"
)

// TestSnapshotBytesReproducible runs columnar SSSP 30 times per seed and
// demands byte-identical SnapshotTo blobs at superstep 0, mid-run and
// at convergence: a snapshot is a function of the seed.
func TestSnapshotBytesReproducible(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		b := graph.NewBuilder(true)
		rng := rand.New(rand.NewSource(seed))
		for v := 1; v < 300; v++ {
			b.AddWeightedEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 1+float64(rng.Intn(9)))
			b.AddWeightedEdge(graph.VertexID(v), graph.VertexID(rng.Intn(v)), 1+float64(rng.Intn(9)))
		}
		g := b.Build()
		var want [][]byte
		for run := 0; run < 30; run++ {
			got := snapshotsAlongRun(t, minfold.New(kernel(g, 0), g, 4))
			if run == 0 {
				want = got
				continue
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d, run %d: snapshot %d differs from run 0", seed, run, i)
				}
			}
		}
	}
}

// snapshotsAlongRun steps j to convergence and returns its SnapshotTo
// blobs at superstep 0, after two supersteps and at the end.
func snapshotsAlongRun(t *testing.T, j *minfold.Job[float64]) [][]byte {
	t.Helper()
	var out [][]byte
	take := func() {
		var buf bytes.Buffer
		if err := j.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	take()
	for step := 1; j.WorksetLen() > 0; step++ {
		if _, err := j.Step(nil); err != nil {
			t.Fatal(err)
		}
		if step == 2 {
			take()
		}
	}
	take()
	return out
}
