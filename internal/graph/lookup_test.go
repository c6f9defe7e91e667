package graph

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// lookupCase is a vertex ID set the builder sees, as one kind of ID
// layout.
type lookupCase struct {
	kind string
	ids  []VertexID // sorted, unique
}

func lookupCases(rng *rand.Rand) []lookupCase {
	n := 1 + rng.Intn(120)
	run := func(lo VertexID) []VertexID {
		ids := make([]VertexID, n)
		for i := range ids {
			ids[i] = lo + VertexID(i)
		}
		return ids
	}
	distinct := func(draw func() VertexID) []VertexID {
		set := map[VertexID]bool{}
		for len(set) < n {
			set[draw()] = true
		}
		ids := make([]VertexID, 0, n)
		for v := range set {
			ids = append(ids, v)
		}
		slices.Sort(ids)
		return ids
	}
	k := VertexID(1 + rng.Intn(1<<20))
	return []lookupCase{
		{"contiguous from 0", run(0)},
		{"contiguous from k", run(k)},
		{"contiguous up to MaxUint64", run(math.MaxUint64 - VertexID(n) + 1)},
		{"sparse", distinct(func() VertexID { return VertexID(rng.Uint64()) })},
		{"sparse, narrow span", distinct(func() VertexID { return k + VertexID(rng.Intn(3*n)) })},
		{"sparse near MaxUint64", distinct(func() VertexID { return math.MaxUint64 - VertexID(rng.Intn(3*n)) })},
		{"sparse with 0 and MaxUint64", append(append([]VertexID{0}, distinct(func() VertexID { return VertexID(1 + rng.Intn(10*n)) })...), math.MaxUint64)},
		{"empty", nil},
	}
}

// TestLookupMatchesMapReference builds graphs over every kind of ID set
// and holds each position lookup to a map reference built here: the
// graph's own methods, its dense view, and FromCSR of a Restrict cut.
// The highest ID is an isolated vertex above every edge endpoint, some
// vertices are added twice, and the probes straddle the ID range. A
// graph keeps an index map exactly when its IDs are not one run.
func TestLookupMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		for _, c := range lookupCases(rng) {
			n := len(c.ids)
			contiguous := n == 0 || c.ids[n-1]-c.ids[0] == VertexID(n-1)
			directed := rng.Intn(2) == 0
			b := NewBuilder(directed)
			adj := map[VertexID][]VertexID{}
			pos := map[VertexID]int32{}
			for i, v := range c.ids {
				pos[v] = int32(i)
				adj[v] = nil
			}
			if n > 0 {
				inner := c.ids[:n-1]
				for e := 0; e < 2*len(inner); e++ {
					src, dst := inner[rng.Intn(len(inner))], inner[rng.Intn(len(inner))]
					b.AddEdge(src, dst)
					adj[src] = append(adj[src], dst)
					if !directed {
						adj[dst] = append(adj[dst], src)
					}
				}
				for _, v := range inner {
					if len(adj[v]) == 0 || rng.Intn(4) == 0 {
						b.AddVertex(v)
					}
				}
				b.AddVertex(c.ids[n-1]).AddVertex(c.ids[n-1])
			}
			g := b.Build()
			if !slices.Equal(g.Vertices(), c.ids) {
				t.Fatalf("%s: vertices %v, want %v", c.kind, g.Vertices(), c.ids)
			}
			if (g.index == nil) != contiguous {
				t.Fatalf("%s: index map present = %v, want %v", c.kind, g.index != nil, !contiguous)
			}

			probes := []VertexID{0, math.MaxUint64, VertexID(rng.Uint64())}
			if n > 0 {
				lo := c.ids[0]
				probes = append(probes, lo-1, lo+VertexID(n), c.ids[n-1]+1)
				probes = append(probes, c.ids...)
			}
			checkLookups(t, c.kind, g, probes, pos, adj)

			d := g.Dense()
			pt := d.Partitioning(3)
			offsets, targets, weights := d.Restrict(pt, []int{0, 2})
			cut, err := FromCSR(g.Vertices(), offsets, targets, weights)
			if err != nil {
				t.Fatalf("%s: %v", c.kind, err)
			}
			if (cut.index == nil) != contiguous {
				t.Fatalf("%s: FromCSR index map present = %v, want %v", c.kind, cut.index != nil, !contiguous)
			}
			cutAdj := map[VertexID][]VertexID{}
			for v, nb := range adj {
				if Partition(v, 3) != 1 {
					cutAdj[v] = nb
				} else {
					cutAdj[v] = nil
				}
			}
			checkLookups(t, c.kind+" via FromCSR", cut, probes, pos, cutAdj)
			if !reflect.DeepEqual(cut.Dense().Partitioning(3), pt) {
				t.Fatalf("%s: partitioning differs after FromCSR", c.kind)
			}
		}
	}
}

func checkLookups(t *testing.T, kind string, g *Graph, probes []VertexID, pos map[VertexID]int32, adj map[VertexID][]VertexID) {
	t.Helper()
	d := g.Dense()
	for _, v := range probes {
		want, in := pos[v]
		if got := g.HasVertex(v); got != in {
			t.Fatalf("%s: HasVertex(%d) = %v, want %v", kind, v, got, in)
		}
		if got, ok := d.IndexOf(v); ok != in || (in && got != want) {
			t.Fatalf("%s: IndexOf(%d) = %d, %v; want %d, %v", kind, v, got, ok, want, in)
		}
		if got := g.OutDegree(v); got != len(adj[v]) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", kind, v, got, len(adj[v]))
		}
		if got := g.OutNeighbors(v); !slices.Equal(got, adj[v]) {
			t.Fatalf("%s: OutNeighbors(%d) = %v, want %v", kind, v, got, adj[v])
		}
		var edges []VertexID
		g.OutEdges(v, func(dst VertexID, _ float64) { edges = append(edges, dst) })
		if !slices.Equal(edges, adj[v]) {
			t.Fatalf("%s: OutEdges(%d) = %v, want %v", kind, v, edges, adj[v])
		}
	}
	for i, tgt := range d.Targets {
		if want := pos[g.targets[i]]; tgt != want {
			t.Fatalf("%s: dense target %d = %d, want %d", kind, i, tgt, want)
		}
	}
}

// TestBuildAllocationsByIDLayout tells Build's two ways of finding the
// vertex IDs apart, which give the same graph. On contiguous IDs Build
// keeps no vertex set and no index map, so its allocation count does not
// grow with the graph; on IDs scattered over the uint64 range it fills a
// set and an index map, whose tables do.
func TestBuildAllocationsByIDLayout(t *testing.T) {
	allocs := func(n int, id func(int) VertexID) float64 {
		b := NewBuilder(true)
		for i := 1; i < n; i++ {
			b.AddEdge(id(i-1), id(i))
		}
		return testing.AllocsPerRun(3, func() { b.Build() })
	}
	run := func(i int) VertexID { return VertexID(7 + i) }
	scattered := func(i int) VertexID { return VertexID(i) * 0x9e3779b97f4a7c15 }
	if small, large := allocs(64, run), allocs(1<<14, run); small != large {
		t.Errorf("contiguous IDs: Build allocates %v times for 64 vertices, %v for %d", small, large, 1<<14)
	}
	if small, large := allocs(64, scattered), allocs(1<<14, scattered); small >= large {
		t.Errorf("scattered IDs: Build allocates %v times for 64 vertices, %v for %d; want more for more", small, large, 1<<14)
	}
}
