package pagerank

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/exec/hostedtest"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// rankDigests runs PageRank on Twitter(400) for seeds 1–3 and returns
// one "name sha256" line per pinned state: the in-process job's
// SnapshotTo bytes at superstep 0, after 2 and 10 supersteps and at
// convergence, with LocalFold off and on; and, for a hostedtest.Pair of
// two Hosted jobs, every partition's AppendPartition bytes and the
// hosts' partial L1 and dangling mass after 10 steps.
func rankDigests(t *testing.T) []string {
	t.Helper()
	const nparts, eps = 4, 1e-12
	var lines []string
	add := func(name string, b []byte) {
		lines = append(lines, fmt.Sprintf("%s %x", name, sha256.Sum256(b)))
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.Twitter(400, seed)
		for _, local := range []bool{false, true} {
			pr := NewColumnar(g, nparts, 0.85, nil)
			pr.SetLocalCombine(local)
			snap := func(at string) {
				var buf bytes.Buffer
				if err := pr.SnapshotTo(&buf); err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("seed=%d/local=%v/%s", seed, local, at), buf.Bytes())
			}
			snap("superstep=0")
			for s := 1; s <= 200 && pr.LastL1() >= eps; s++ {
				if _, err := pr.Step(nil); err != nil {
					t.Fatal(err)
				}
				if s == 2 || s == 10 {
					snap(fmt.Sprintf("superstep=%d", s))
				}
			}
			if pr.LastL1() >= eps {
				t.Fatalf("seed %d, local=%v: no convergence in 200 supersteps", seed, local)
			}
			snap("converged")
		}

		hosts, owner := hostedHosts(t, g)
		pair := hostedtest.NewPair(hosts, owner)
		var b []byte
		for s := 0; s < 10; s++ {
			outs, err := pair.Step()
			if err != nil {
				t.Fatal(err)
			}
			if s == 9 {
				for _, out := range outs {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(out.L1))
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(out.Dangling))
				}
			}
		}
		for p, w := range owner {
			b = hosts[w].AppendPartition(b, p)
		}
		add(fmt.Sprintf("seed=%d/hosted/steps=10", seed), b)
	}
	return lines
}

// hostedHosts splits g's 4 partitions over two Hosted jobs, 0 and 2 on
// one and 1 and 3 on the other, each built — like a worker process —
// from the vertex IDs plus only its own partitions' adjacency.
func hostedHosts(tb testing.TB, g *graph.Graph) (hosts [2]hostedtest.Host, owner []int) {
	tb.Helper()
	d := g.Dense()
	pt := d.Partitioning(4)
	for w := range hosts {
		parts := []int{w, w + 2}
		offsets, targets, weights := d.Restrict(pt, parts)
		pg, err := graph.FromCSR(g.Vertices(), offsets, targets, weights)
		if err != nil {
			tb.Fatal(err)
		}
		hosts[w] = NewHosted(pg, 4, 0.85, parts)
	}
	return hosts, []int{0, 1, 0, 1}
}

// TestRankDigests holds PageRank's ranks, bit for bit, to digests
// committed in testdata/rank_digests.txt: a kernel change that claims
// to leave the ranks unchanged must reproduce every one. Regenerate
// with OPTIFLOW_UPDATE_GOLDEN=1 only for a deliberate change to the
// arithmetic.
func TestRankDigests(t *testing.T) {
	path := filepath.Join("testdata", "rank_digests.txt")
	got := strings.Join(rankDigests(t), "\n") + "\n"
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d digests, the fixture has %d", len(lines), len(want))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("digest drifted:\n got  %s\n want %s", line, want[i])
		}
	}
}
