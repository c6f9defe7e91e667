package cc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/algo/minfold"
	"optiflow/internal/exec"
	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// minfoldDigests appends one "name sha256" line per pinned byte view of
// min-fold job j to lines: SnapshotTo at superstep 0, after two
// supersteps and at convergence; every SnapshotPartition after two
// supersteps; the SnapshotDelta of superstep 0 and of each of the first
// three supersteps; and, after partition 1 is lost, the SnapshotTo and
// SnapshotPartition(1) views with absent slots and an empty workset
// partition, the delta carrying the cleared partition in full, and the
// delta of the first superstep after fix-components.
func minfoldDigests[V exec.ColValue](t *testing.T, name string, j *minfold.Job[V], lines []string) []string {
	t.Helper()
	const nparts = 4
	add := func(at string, write func(*bytes.Buffer) error) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s/%s %x", name, at, sha256.Sum256(buf.Bytes())))
	}
	step := func() {
		t.Helper()
		if _, err := j.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	parts := func(at string) {
		for p := 0; p < nparts; p++ {
			add(fmt.Sprintf("%s/partition=%d", at, p), func(b *bytes.Buffer) error { return j.SnapshotPartition(p, b) })
		}
	}
	add("superstep=0", j.SnapshotTo)
	add("superstep=0/delta", j.SnapshotDelta)
	for s := 1; s <= 3; s++ {
		step()
		if s == 2 {
			add("superstep=2", j.SnapshotTo)
			parts("superstep=2")
		}
		add(fmt.Sprintf("superstep=%d/delta", s), j.SnapshotDelta)
	}
	j.ClearPartitions([]int{1})
	add("lost=1", j.SnapshotTo)
	add("lost=1/partition=1", func(b *bytes.Buffer) error { return j.SnapshotPartition(1, b) })
	add("lost=1/delta", j.SnapshotDelta)
	if err := j.Compensate([]int{1}); err != nil {
		t.Fatal(err)
	}
	step()
	add("compensated/superstep=1/delta", j.SnapshotDelta)
	for n := 0; j.WorksetLen() > 0; n++ {
		if n > 10000 {
			t.Fatalf("%s: no convergence", name)
		}
		step()
	}
	add("converged", j.SnapshotTo)
	parts("converged")
	return lines
}

// ssspKernel is the min-fold kernel of columnar SSSP (sssp.kernel):
// float64 distances, the source at 0 and every other vertex inactive at
// +Inf.
func ssspKernel(g *graph.Graph, source graph.VertexID) minfold.Kernel[float64] {
	src, _ := g.Dense().IndexOf(source)
	return minfold.Kernel[float64]{
		Name:   "sssp",
		Expand: exec.ExpandAddWeight,
		Init: func(idx int32) (float64, bool) {
			if idx == src {
				return 0, true
			}
			return math.Inf(1), false
		},
	}
}

// weightedDigraph is a directed graph with integer weights 1–9 in which
// every seventh vertex has out-edges only, so it stays at +Inf.
func weightedDigraph(n int, seed int64) *graph.Graph {
	b := graph.NewBuilder(true)
	rng := rand.New(rand.NewSource(seed))
	for v := 1; v < n; v++ {
		w := func() float64 { return float64(1 + rng.Intn(9)) }
		if v%7 != 0 {
			b.AddWeightedEdge(graph.VertexID(rng.Intn(v)), graph.VertexID(v), w())
		}
		b.AddWeightedEdge(graph.VertexID(v), graph.VertexID(rng.Intn(v)), w())
	}
	return b.Build()
}

// viewDigests pins the min-fold job's byte views: CC's uint64 labels on
// a grid and a power-law graph, SSSP's float64 distances (+Inf present)
// on a directed weighted graph, and the AppendPartition views of CC
// split over two hosts after three steps.
func viewDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	lines = minfoldDigests(t, "cc/grid", NewColumnar(gen.Grid(12, 12), 4).Job, lines)
	lines = minfoldDigests(t, "cc/ba", NewColumnar(gen.BarabasiAlbert(300, 2, 5, false), 4).Job, lines)
	dg := weightedDigraph(300, 3)
	lines = minfoldDigests(t, "sssp/digraph", minfold.New(ssspKernel(dg, 0), dg, 4), lines)

	hosts, owner := hostedPair(t, gen.Grid(12, 12))
	pair := hostedtest.NewPair([2]hostedtest.Host{hosts[0], hosts[1]}, owner)
	for s := 0; s < 3; s++ {
		if _, err := pair.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var b []byte
	for p, w := range owner {
		b = hosts[w].AppendPartition(b, p)
	}
	lines = append(lines, fmt.Sprintf("cc/grid/hosted/steps=3 %x", sha256.Sum256(b)))
	return lines
}

// TestViewDigests holds the byte views of CC's and SSSP's checkpoint
// blobs and hosted partition state to digests committed in
// testdata/view_digests.txt: a change to how the views are encoded must
// reproduce every byte. Regenerate with OPTIFLOW_UPDATE_GOLDEN=1 only
// for a deliberate format or arithmetic change.
func TestViewDigests(t *testing.T) {
	checkDigests(t, filepath.Join("testdata", "view_digests.txt"), viewDigests(t))
}

// checkDigests compares lines with the fixture at path, or rewrites the
// fixture when OPTIFLOW_UPDATE_GOLDEN=1.
func checkDigests(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest fixture %s: %v", path, err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d digests, the fixture has %d", len(lines), len(want))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("digest drifted:\n got  %s\n want %s", line, want[i])
		}
	}
}
