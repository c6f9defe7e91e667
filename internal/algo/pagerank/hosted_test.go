package pagerank

import (
	"bytes"
	"math"
	"testing"

	"optiflow/internal/exec"
	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/state"
)

// runHostedPair runs PageRank as two Hosted jobs — each built, like a
// worker process, from the vertex IDs plus only its own partitions'
// adjacency — exchanging byte columns and partial scalars until the combined
// L1 delta drops under eps. Attempt `tornAt` is aborted and replayed.
func runHostedPair(t *testing.T, g *graph.Graph, eps float64, tornAt int) (ranks map[graph.VertexID]float64, steps int, msgs int64) {
	t.Helper()
	const nparts = 4
	d := g.Dense()
	pt := d.Partitioning(nparts)
	owner := []int{0, 1, 0, 1}
	var hosts [2]*Hosted
	for w := range hosts {
		var parts []int
		for p, o := range owner {
			if o == w {
				parts = append(parts, p)
			}
		}
		offsets, targets, weights := d.Restrict(pt, parts)
		pg, err := graph.FromCSR(g.Vertices(), offsets, targets, weights)
		if err != nil {
			t.Fatalf("FromCSR: %v", err)
		}
		hosts[w] = NewHosted(pg, nparts, 0.85, parts)
	}
	var ins [2][]exec.HostedCols
	dangling, l1 := 0.0, math.Inf(1)
	for prime := true; l1 >= eps; prime = false {
		var outs [2]exec.HostedOut
		attempt := func() {
			for w, h := range hosts {
				out, err := h.Step(prime, dangling, ins[w])
				if err != nil {
					t.Fatalf("step %d host %d: %v", steps, w, err)
				}
				outs[w] = out
			}
		}
		attempt()
		if steps == tornAt {
			for _, h := range hosts {
				h.Abort()
			}
			attempt()
		}
		ins = [2][]exec.HostedCols{}
		for _, h := range hosts {
			h.Commit()
		}
		for _, out := range outs {
			for _, rc := range out.Remote {
				rc.Cols = append([]byte(nil), rc.Cols...)
				ins[owner[rc.Dst]] = append(ins[owner[rc.Dst]], rc)
			}
		}
		dangling = outs[0].Dangling + outs[1].Dangling
		if outs[0].Folded {
			l1 = outs[0].L1 + outs[1].L1
		}
		msgs += outs[0].Messages + outs[1].Messages
		steps++
	}
	ranks = hosts[0].RankVector()
	for v, r := range hosts[1].RankVector() {
		ranks[v] = r
	}
	return ranks, steps, msgs
}

// TestHostedMatchesInProcess demands the hosted halves reproduce the
// in-process columnar job: ranks within 1e-9 in L1, unit mass, the same
// superstep count up to the priming step — and bit-identical ranks and
// message counts between two hosted runs.
func TestHostedMatchesInProcess(t *testing.T) {
	const eps = 1e-10
	for name, g := range map[string]*graph.Graph{"twitter": gen.Twitter(300, 7), "grid": gen.Grid(8, 8)} {
		t.Run(name, func(t *testing.T) {
			inproc := NewColumnar(g, 4, 0.85, nil)
			wantSteps := 0
			for inproc.LastL1() >= eps {
				if _, err := inproc.Step(nil); err != nil {
					t.Fatal(err)
				}
				wantSteps++
			}
			want := inproc.RankVector()

			got, steps, msgs := runHostedPair(t, g, eps, 2)
			if steps != wantSteps+1 {
				t.Errorf("hosted run took %d steps, in-process %d (+1 priming)", steps, wantSteps)
			}
			sum, l1 := 0.0, 0.0
			for v, r := range got {
				sum += r
				l1 += math.Abs(r - want[v])
			}
			if len(got) != len(want) || l1 > 1e-9 {
				t.Errorf("hosted ranks are L1 %.3g from the in-process job (%d of %d vertices)", l1, len(got), len(want))
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("hosted ranks sum to %.12f", sum)
			}

			again, steps2, msgs2 := runHostedPair(t, g, eps, -1)
			if steps2 != steps || msgs2 != msgs {
				t.Errorf("second run: %d steps %d messages, first %d and %d", steps2, msgs2, steps, msgs)
			}
			for v, r := range got {
				if again[v] != r {
					t.Fatalf("rank of %d differs between two hosted runs: %v vs %v", v, r, again[v])
				}
			}
		})
	}
}

// TestPartitionBlobIsHostedView shows PageRank has one state codec:
// after the format tag, an in-process partition blob is byte for byte
// the view a hosting worker ships — for the superstep-zero ranks both
// seed on their own, and mid-run, once the host restored the blobs.
func TestPartitionBlobIsHostedView(t *testing.T) {
	const nparts = 4
	g := gen.Twitter(300, 7)
	inproc := NewColumnar(g, nparts, 0.85, nil)
	host := NewHosted(g, nparts, 0.85, []int{0, 1, 2, 3})
	blobs := func() [][]byte {
		out := make([][]byte, nparts)
		for p := range out {
			var buf bytes.Buffer
			if err := inproc.SnapshotPartition(p, &buf); err != nil {
				t.Fatal(err)
			}
			if out[p] = buf.Bytes(); out[p][0] != state.ViewTag {
				t.Fatalf("partition %d: blob starts with %#x, not the format tag", p, out[p][0])
			}
		}
		return out
	}
	for p, blob := range blobs() {
		if !bytes.Equal(blob[1:], host.AppendPartition(nil, p)) {
			t.Fatalf("superstep 0, partition %d: in-process blob is not the hosted view", p)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := inproc.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	for p, blob := range blobs() {
		if err := host.RestorePartition(p, blob[1:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob[1:], host.AppendPartition(nil, p)) {
			t.Fatalf("superstep 3, partition %d: in-process blob is not the hosted view", p)
		}
	}
}

// TestHostedAbortAfterRecycledCommits aborts and replays hosted
// PageRank attempts after commits whose revert captures were recycled —
// a priming step, steps the driver aborts after they succeeded, a fold
// that met a misrouted row — and holds every step's columns, partial
// scalars and rank views to a twin run that never aborts.
func TestHostedAbortAfterRecycledCommits(t *testing.T) {
	g := gen.Twitter(300, 7)
	_, owner := hostedHosts(t, g)
	build := func() [2]hostedtest.Host {
		hosts, _ := hostedHosts(t, g)
		return hosts
	}
	if err := hostedtest.AbortTwin(build, owner, g.Dense().Partitioning(4).PartOf, 14); err != nil {
		t.Fatal(err)
	}
}
