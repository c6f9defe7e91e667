package sssp

import (
	"bytes"
	"math/rand"
	"testing"

	"optiflow/internal/algo/minfold"
	"optiflow/internal/graph"
)

// TestAsyncCaptureInFlightMatchesSyncSnapshot takes the async
// checkpoint's per-partition capture at a superstep barrier and encodes
// it on another goroutine while the live job keeps stepping — clearing,
// refilling and swapping the worksets the capture aliases. Under -race
// any write to a captured array is reported; without it the bytes must
// still equal a synchronous snapshot taken at the same barrier, and
// restoring them must reproduce that snapshot exactly.
func TestAsyncCaptureInFlightMatchesSyncSnapshot(t *testing.T) {
	const nparts = 4
	// A random weighted digraph in which every vertex is reachable from 0.
	b := graph.NewBuilder(true)
	rng := rand.New(rand.NewSource(3))
	for v := 1; v < 150; v++ {
		b.AddWeightedEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), 1+float64(rng.Intn(9)))
		b.AddWeightedEdge(graph.VertexID(v), graph.VertexID(rng.Intn(v)), 1+float64(rng.Intn(9)))
	}
	g := b.Build()
	newJob := func() *minfold.Job[float64] { return minfold.New(kernel(g, 0), g, nparts) }

	for _, barrier := range []int{0, 1, 3, 6} {
		j := newJob()
		for i := 0; i < barrier; i++ {
			if _, err := j.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		sync := make([][]byte, nparts)
		for p := range sync {
			var buf bytes.Buffer
			if err := j.SnapshotPartition(p, &buf); err != nil {
				t.Fatal(err)
			}
			sync[p] = buf.Bytes()
		}
		capture := j.CaptureSnapshot()
		encoded := make(chan [][]byte)
		go func() {
			out := make([][]byte, nparts)
			for p := range out {
				var buf bytes.Buffer
				if err := capture.SnapshotPartition(p, &buf); err != nil {
					t.Error(err)
				}
				out[p] = buf.Bytes()
			}
			encoded <- out
		}()
		for i := 0; i < 4; i++ {
			if _, err := j.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		got := <-encoded

		restored := newJob()
		for p := range got {
			if !bytes.Equal(got[p], sync[p]) {
				t.Fatalf("barrier %d, partition %d: capture encoded differently from the sync snapshot", barrier, p)
			}
			if err := restored.RestorePartition(p, got[p]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := restored.SnapshotPartition(p, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), sync[p]) {
				t.Fatalf("barrier %d, partition %d: restored state differs from the sync snapshot", barrier, p)
			}
		}
	}
}
