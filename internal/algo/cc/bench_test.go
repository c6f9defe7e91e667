package cc

import (
	"bytes"
	"testing"

	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// BenchmarkSuperstep times one in-process CC superstep on
// gen.Grid(48, 48), the ledger's grid, over 4 partitions: an op is the
// next superstep of a run, which restarts, untimed, once it converges.
func BenchmarkSuperstep(b *testing.B) {
	c := NewColumnar(gen.Grid(48, 48), 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.WorksetLen() == 0 {
			b.StopTimer()
			if err := c.ResetToInitial(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := c.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostedPairStep times one step of the same job split over two
// hosts, partitions 0 and 2 on one and 1 and 3 on the other: an op is
// the next step of a run, which restarts, untimed, on fresh hosts once
// no host sends a message. It reports what crossed per step:
// remote-B/op, the column bytes relayed between the hosts, and
// local-rows/op, the rows each host kept typed for its own partitions.
func BenchmarkHostedPairStep(b *testing.B) {
	g := gen.Grid(48, 48)
	split := func() *hostedtest.Pair {
		hosts, owner := hostedPair(b, g)
		return hostedtest.NewPair([2]hostedtest.Host{hosts[0], hosts[1]}, owner)
	}
	pair := split()
	var remote, local int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outs, err := pair.Step()
		if err != nil {
			b.Fatal(err)
		}
		sent, kept := pair.Traffic()
		remote, local = remote+sent, local+kept
		if outs[0].Messages+outs[1].Messages == 0 {
			b.StopTimer()
			pair = split()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(remote)/float64(b.N), "remote-B/op")
	b.ReportMetric(float64(local)/float64(b.N), "local-rows/op")
}

// BenchmarkRunChain times a whole cc.Run on gen.Chain(3000): ~3000
// supersteps that each carry about two messages, the sparse tail of a
// delta iteration with nothing else around it, where a fold's per-run
// set-up over every vertex shows most.
func BenchmarkRunChain(b *testing.B) {
	benchmarkRun(b, gen.Chain(3000))
}

// BenchmarkRunBarabasiAlbert times a whole cc.Run on a 20 000-vertex
// power-law graph, whose workset collapses from every vertex to a few
// within a handful of supersteps.
func BenchmarkRunBarabasiAlbert(b *testing.B) {
	benchmarkRun(b, gen.BarabasiAlbert(20000, 4, 1, false))
}

func benchmarkRun(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGrid times what one job of the ledger's cc-grid-inproc
// workload does: a fresh CC job on gen.Grid(48, 48) over 4 partitions
// and 2 workers, built and run to convergence, and its labels fetched.
// The steady-step BenchmarkSuperstep leaves out the job's construction,
// its first, full-workset supersteps and the loop around them.
func BenchmarkRunGrid(b *testing.B) {
	g := gen.Grid(48, 48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Options{Parallelism: 4, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotTo times one full checkpoint blob of CC on
// gen.Grid(48, 48) over 4 partitions after ten supersteps: every
// partition's value view and workset view.
func BenchmarkSnapshotTo(b *testing.B) {
	c := NewColumnar(gen.Grid(48, 48), 4)
	for i := 0; i < 10; i++ {
		if _, err := c.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.SnapshotTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
