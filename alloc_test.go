package optiflow_test

import (
	"runtime"
	"testing"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// TestAllocationCeilings fails when the superstep hot path starts
// allocating per message. gen.Twitter(2000, 1) has ~16k edges: a whole
// CC run sends ~93k messages in ~240 allocations, a whole PageRank run
// (NewColumnar to convergence, 53 supersteps) ~850k in ~145, and a
// steady-state PageRank superstep ~16k in 2, the map of its step stats
// (as many under -race). The ceilings leave ~10x headroom on counts for
// benign drift and still sit orders of magnitude below one allocation
// per message.
//
// Counts miss a column that regrows from empty every superstep, so the
// byte ceilings pin that too: a whole CC run on gen.Grid(48, 48) — 95
// short supersteps — allocates ~0.36 MB with reused workset columns and
// ~4.1 MB when they are dropped at every clear; a whole PageRank run
// allocates ~0.19 MB, most of it the job's set-up, and a steady
// PageRank superstep ~260 B.
//
// The hosted cases run a job as two worker processes host it (see
// newHostedPair): a steady step of both halves allocates ~100 B, where
// revert captures that made every step regrow the CC workset and copy
// the values and rank partitions cost ~86 kB (CC, 228 allocations) and
// ~33 kB (PageRank, 140).
func TestAllocationCeilings(t *testing.T) {
	directed := gen.Twitter(2000, 1)
	und := graph.NewBuilder(false)
	directed.Edges(func(e graph.Edge) { und.AddEdge(e.Src, e.Dst) })
	undirected := und.Build()

	pr := pagerank.NewColumnar(directed, 4, 0.85, nil)
	for i := 0; i < 3; i++ { // reach steady state: pools warm, scratch sized
		if _, err := pr.Step(nil); err != nil {
			t.Fatal(err)
		}
	}

	grid := gen.Grid(48, 48)
	ccHosts := newHostedPair(t, grid, func(g *graph.Graph, parts []int) hostedtest.Host {
		return cc.NewHosted(g, 4, parts)
	})
	prHosts := newHostedPair(t, directed, func(g *graph.Graph, parts []int) hostedtest.Host {
		return pagerank.NewHosted(g, 4, 0.85, parts)
	})
	hostedStep := func(hp *hostedtest.Pair) func() error {
		return func() error {
			_, err := hp.Step()
			return err
		}
	}
	for i := 0; i < 20; i++ { // past the grid's first wide wavefronts
		for _, hp := range []*hostedtest.Pair{ccHosts, prHosts} {
			if err := hostedStep(hp)(); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name    string
		ceiling float64 // allocations per op
		bytes   float64 // bytes per op; 0 means unchecked
		op      func() error
	}{
		{"cc-whole-run", 10000, 0, func() error {
			_, err := cc.Run(undirected, cc.Options{Parallelism: 4})
			return err
		}},
		{"cc-grid-whole-run", 5000, 1 << 20, func() error {
			_, err := cc.Run(grid, cc.Options{Parallelism: 4})
			return err
		}},
		{"pagerank-whole-run", 1500, 512 << 10, func() error {
			pr := pagerank.NewColumnar(directed, 4, 0.85, nil)
			for pr.LastL1() >= 1e-10 {
				if _, err := pr.Step(nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"pagerank-steady-superstep", 20, 2 << 10, func() error {
			_, err := pr.Step(nil)
			return err
		}},
		{"cc-grid-hosted-steady-step", 100, 1 << 10, hostedStep(ccHosts)},
		{"pagerank-hosted-steady-step", 100, 1 << 10, hostedStep(prHosts)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := func() {
				if err := tc.op(); err != nil {
					t.Error(err)
				}
			}
			got := testing.AllocsPerRun(5, op)
			b := bytesPerRun(5, op)
			t.Logf("%s: %.0f allocs/op (ceiling %.0f), %.0f B/op (ceiling %.0f)", tc.name, got, tc.ceiling, b, tc.bytes)
			if got > tc.ceiling {
				t.Fatalf("%s allocates %.0f allocs/op, ceiling is %.0f: the hot path is allocating per record again", tc.name, got, tc.ceiling)
			}
			if tc.bytes > 0 && b > tc.bytes && !raceEnabled {
				t.Fatalf("%s allocates %.0f B/op, ceiling is %.0f: a column is regrowing from empty every superstep again", tc.name, b, tc.bytes)
			}
		})
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one call of f, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// newHostedPair splits g's 4 partitions over two hosts the way two
// worker processes split them — partitions 0 and 2 on one, 1 and 3 on
// the other, each built from its own partitions' out-edges.
func newHostedPair(t *testing.T, g *graph.Graph, host func(*graph.Graph, []int) hostedtest.Host) *hostedtest.Pair {
	t.Helper()
	d := g.Dense()
	pt := d.Partitioning(4)
	var hosts [2]hostedtest.Host
	for w := range hosts {
		parts := []int{w, w + 2}
		offsets, targets, weights := d.Restrict(pt, parts)
		pg, err := graph.FromCSR(g.Vertices(), offsets, targets, weights)
		if err != nil {
			t.Fatal(err)
		}
		hosts[w] = host(pg, parts)
	}
	return hostedtest.NewPair(hosts, []int{0, 1, 0, 1})
}
