package cc

import (
	"bytes"
	"reflect"
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/state"
)

// hostedPair splits g's 4 partitions over two Hosted jobs, each built —
// like a worker process — from the vertex IDs plus only its own
// partitions' adjacency.
func hostedPair(t testing.TB, g *graph.Graph) (hosts [2]*Hosted, owner []int) {
	t.Helper()
	const nparts = 4
	d := g.Dense()
	pt := d.Partitioning(nparts)
	owner = []int{0, 1, 0, 1}
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
		hosts[w] = NewHosted(pg, nparts, parts)
	}
	return hosts, owner
}

// exchange routes one step's remote columns to the hosts owning their
// destinations, copying them as a wire would.
func exchange(outs [2]exec.HostedOut, owner []int) (ins [2][]exec.HostedCols) {
	for _, out := range outs {
		for _, rc := range out.Remote {
			rc.Cols = append([]byte(nil), rc.Cols...)
			ins[owner[rc.Dst]] = append(ins[owner[rc.Dst]], rc)
		}
	}
	return ins
}

// TestHostedMatchesInProcess runs CC as two hosted halves exchanging
// byte columns — with one attempt aborted and replayed on the way — and
// demands the labels, the message total and the superstep count (up to
// the priming step) of the in-process columnar job.
func TestHostedMatchesInProcess(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"twitter": gen.Twitter(300, 7), "grid": gen.Grid(8, 8)} {
		t.Run(name, func(t *testing.T) {
			inproc := NewColumnar(g, 4)
			var wantMsgs int64
			wantSteps := 0
			for inproc.WorksetLen() > 0 {
				st, err := inproc.Step(nil)
				if err != nil {
					t.Fatal(err)
				}
				wantMsgs += st.Messages
				wantSteps++
			}

			hosts, owner := hostedPair(t, g)
			var ins [2][]exec.HostedCols
			var msgs int64
			steps := 0
			for prime, pending := true, int64(1); pending > 0; prime = false {
				var outs [2]exec.HostedOut
				attempt := func() {
					for w, h := range hosts {
						out, err := h.Step(prime, 0, ins[w])
						if err != nil {
							t.Fatalf("step %d host %d: %v", steps, w, err)
						}
						outs[w] = out
					}
				}
				attempt()
				if steps == 2 {
					// A torn attempt: host 0 is told to drop it, host 1 never
					// hears (its next Step must drop it itself), then replay.
					hosts[0].Abort()
					attempt()
				}
				for _, h := range hosts {
					h.Commit()
				}
				ins = exchange(outs, owner)
				pending = outs[0].Messages + outs[1].Messages
				msgs += pending
				steps++
			}
			if steps != wantSteps+1 {
				t.Errorf("hosted run took %d steps, in-process %d (+1 priming)", steps, wantSteps)
			}
			if msgs != wantMsgs {
				t.Errorf("hosted run sent %d messages, in-process %d", msgs, wantMsgs)
			}
			got := hosts[0].Components()
			for v, l := range hosts[1].Components() {
				got[v] = l
			}
			// Label propagation along out-edges only finds the weakly
			// connected components of an undirected graph.
			if want := ref.ConnectedComponents(g); !g.Directed() && !reflect.DeepEqual(got, want) {
				t.Fatalf("hosted components diverged from ground truth")
			}
			if !reflect.DeepEqual(got, inproc.Components()) {
				t.Fatalf("hosted components diverged from the in-process job")
			}
			// One codec: after the format tag, an in-process partition
			// blob is the value view the hosting worker ships, then the
			// (now empty) workset view.
			emptyWorkset := colbytes.AppendU32(colbytes.AppendU32(nil, 0), 0)
			for p, w := range owner {
				var buf bytes.Buffer
				if err := inproc.SnapshotPartition(p, &buf); err != nil {
					t.Fatal(err)
				}
				want := append(append([]byte{state.ViewTag}, hosts[w].AppendPartition(nil, p)...), emptyWorkset...)
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("partition %d: in-process blob is not the hosted view", p)
				}
			}
		})
	}
}

// TestHostedAbortAfterRecycledCommits aborts and replays hosted CC
// attempts after commits whose revert captures were recycled — a
// priming step, steps the driver aborts after they succeeded, a fold
// that met a misrouted row — and holds every step's columns and
// partition views to a twin run that never aborts.
func TestHostedAbortAfterRecycledCommits(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"twitter": gen.Twitter(300, 7), "grid": gen.Grid(12, 12)} {
		t.Run(name, func(t *testing.T) {
			build := func() [2]hostedtest.Host {
				hosts, _ := hostedPair(t, g)
				return [2]hostedtest.Host{hosts[0], hosts[1]}
			}
			_, owner := hostedPair(t, g)
			if err := hostedtest.AbortTwin(build, owner, g.Dense().Partitioning(4).PartOf, 14); err != nil {
				t.Fatal(err)
			}
		})
	}
}
