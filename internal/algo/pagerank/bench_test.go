package pagerank

import (
	"bytes"
	"testing"

	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph/gen"
)

// BenchmarkSuperstep times one in-process PageRank superstep on
// gen.Twitter(4000, 20150531), the ledger's graph, over 4 partitions,
// from a warm engine.
func BenchmarkSuperstep(b *testing.B) { benchSuperstep(b, false) }

// BenchmarkSuperstepLocal times the same superstep with the pre-shuffle
// combiner on (Options.LocalCombine): every partition sums its own
// messages first, as a hosted step does.
func BenchmarkSuperstepLocal(b *testing.B) { benchSuperstep(b, true) }

func benchSuperstep(b *testing.B, local bool) {
	pr := NewColumnar(gen.Twitter(4000, 20150531), 4, 0.85, nil)
	pr.SetLocalCombine(local)
	for i := 0; i < 3; i++ {
		if _, err := pr.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun times what one job of the ledger's pr-twitter-inproc
// workload does: a fresh PageRank job on gen.Twitter(4000, 20150531)
// over 4 partitions and 2 workers, built and run until a superstep
// moves less than 4.7e-5 rank mass, and its ranks fetched. The
// steady-step BenchmarkSuperstep leaves out the job's construction and
// the loop around its supersteps, and reruns one warm engine; pair this
// one with the ledger before calling a kernel change flat.
func BenchmarkRun(b *testing.B) {
	g := gen.Twitter(4000, 20150531)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Options{Parallelism: 4, Workers: 2, Epsilon: 4.7e-5, MaxIterations: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostedPairStep times one step of the same job split over two
// hosts, partitions 0 and 2 on one and 1 and 3 on the other: both
// hosts' fold and expand halves and the relay between them. It reports
// what crossed per step: remote-B/op, the column bytes relayed between
// the hosts, and local-rows/op, the rows each host kept typed for its
// own partitions.
func BenchmarkHostedPairStep(b *testing.B) {
	pair := hostedtest.NewPair(hostedHosts(b, gen.Twitter(4000, 20150531)))
	for i := 0; i < 3; i++ {
		if _, err := pair.Step(); err != nil {
			b.Fatal(err)
		}
	}
	var remote, local int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pair.Step(); err != nil {
			b.Fatal(err)
		}
		sent, kept := pair.Traffic()
		remote, local = remote+sent, local+kept
	}
	b.ReportMetric(float64(remote)/float64(b.N), "remote-B/op")
	b.ReportMetric(float64(local)/float64(b.N), "local-rows/op")
}

// BenchmarkSnapshotTo times one full checkpoint blob of PageRank on
// gen.Twitter(4000, 20150531) over 4 partitions after three supersteps:
// the convergence marker and every partition's rank view.
func BenchmarkSnapshotTo(b *testing.B) {
	pr := NewColumnar(gen.Twitter(4000, 20150531), 4, 0.85, nil)
	for i := 0; i < 3; i++ {
		if _, err := pr.Step(nil); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := pr.SnapshotTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
