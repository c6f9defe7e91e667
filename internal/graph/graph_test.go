package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderDirected(t *testing.T) {
	g := NewBuilder(true).
		AddEdge(1, 2).
		AddEdge(1, 3).
		AddEdge(3, 1).
		AddVertex(9).
		Build()

	if !g.Directed() {
		t.Fatal("graph should be directed")
	}
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	if got := g.OutNeighbors(1); !reflect.DeepEqual(got, []VertexID{2, 3}) {
		t.Fatalf("OutNeighbors(1) = %v", got)
	}
	if got := g.OutDegree(3); got != 1 {
		t.Fatalf("OutDegree(3) = %d, want 1", got)
	}
	if got := g.OutDegree(2); got != 0 {
		t.Fatalf("OutDegree(2) = %d, want 0", got)
	}
	if got := g.OutDegree(9); got != 0 {
		t.Fatalf("OutDegree(9) = %d, want 0 (isolated)", got)
	}
	if g.OutNeighbors(42) != nil {
		t.Fatal("unknown vertex should have nil neighbors")
	}
	if !g.HasVertex(9) || g.HasVertex(42) {
		t.Fatal("HasVertex wrong")
	}
}

func TestBuilderUndirectedStoresBothDirections(t *testing.T) {
	g := NewBuilder(false).AddEdge(1, 2).AddEdge(2, 3).Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (logical)", g.NumEdges())
	}
	if got := g.OutNeighbors(2); !reflect.DeepEqual(got, []VertexID{1, 3}) {
		t.Fatalf("OutNeighbors(2) = %v", got)
	}
	if got := g.OutDegree(1); got != 1 {
		t.Fatalf("OutDegree(1) = %d, want 1", got)
	}
}

func TestWeightedEdges(t *testing.T) {
	g := NewBuilder(true).AddWeightedEdge(1, 2, 2.5).AddEdge(1, 3).Build()
	weights := map[VertexID]float64{}
	g.OutEdges(1, func(dst VertexID, w float64) { weights[dst] = w })
	if weights[2] != 2.5 || weights[3] != 1 {
		t.Fatalf("weights = %v", weights)
	}
}

func TestVerticesSorted(t *testing.T) {
	g := NewBuilder(true).AddEdge(9, 4).AddEdge(2, 7).Build()
	vs := g.Vertices()
	if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i] < vs[j] }) {
		t.Fatalf("vertices not sorted: %v", vs)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := NewBuilder(true).AddWeightedEdge(1, 2, 3).AddEdge(2, 1).Build()
	var got []Edge
	g.Edges(func(e Edge) { got = append(got, e) })
	want := []Edge{{1, 2, 3}, {2, 1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestDegrees(t *testing.T) {
	g := NewBuilder(true).AddEdge(1, 2).AddEdge(1, 3).AddEdge(2, 3).Build()
	if got := g.Degrees(); !reflect.DeepEqual(got, []int{2, 1, 0}) {
		t.Fatalf("Degrees = %v", got)
	}
}

func TestMultiEdgesKept(t *testing.T) {
	g := NewBuilder(true).AddEdge(1, 2).AddEdge(1, 2).Build()
	if got := g.OutDegree(1); got != 2 {
		t.Fatalf("multi-edge collapsed: OutDegree(1) = %d", got)
	}
}

func TestPartitionProperties(t *testing.T) {
	// Partition is deterministic, in range, and matches Hash.
	f := func(v uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := Partition(VertexID(v), n)
		if p < 0 || p >= n {
			return false
		}
		if n > 1 && p != int(Hash(v)%uint64(n)) {
			return false
		}
		return p == Partition(VertexID(v), n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	// Sequential IDs must spread nearly evenly thanks to the avalanche
	// hash.
	const n, parts = 100000, 8
	counts := make([]int, parts)
	for v := 0; v < n; v++ {
		counts[Partition(VertexID(v), parts)]++
	}
	want := n / parts
	for p, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("partition %d has %d of %d vertices (want ~%d): %v", p, c, n, want, counts)
		}
	}
}

func TestPartitionVertices(t *testing.T) {
	g := NewBuilder(false).AddEdge(1, 2).AddEdge(3, 4).AddVertex(5).Build()
	parts := PartitionVertices(g, 3)
	total := 0
	for p, vs := range parts {
		for _, v := range vs {
			if Partition(v, 3) != p {
				t.Fatalf("vertex %d listed in wrong partition %d", v, p)
			}
			total++
		}
	}
	if total != 5 {
		t.Fatalf("partitioned %d vertices, want 5", total)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		directed := trial%2 == 0
		b := NewBuilder(directed)
		for i := 0; i < 30; i++ {
			src, dst := VertexID(rng.Intn(20)), VertexID(rng.Intn(20))
			if src == dst {
				continue
			}
			if rng.Intn(2) == 0 {
				b.AddWeightedEdge(src, dst, float64(1+rng.Intn(5)))
			} else {
				b.AddEdge(src, dst)
			}
		}
		g := b.Build()

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), directed)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: roundtrip edges %d != %d\n%s", trial, g2.NumEdges(), g.NumEdges(), buf.String())
		}
		for _, v := range g.Vertices() {
			if g2.OutDegree(v) != g.OutDegree(v) {
				t.Fatalf("trial %d: vertex %d degree %d != %d", trial, v, g2.OutDegree(v), g.OutDegree(v))
			}
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n\n1 2\n2 3 2.5\n"
	g, err := ReadEdgeList(bytes.NewReader([]byte(in)), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Fatalf("got %v", g)
	}
	total := 0.0
	g.OutEdges(2, func(_ VertexID, w float64) { total += w })
	if total != 2.5 {
		t.Fatalf("weight lost: %g", total)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "a b\n", "1 b\n", "1 2 x\n"} {
		if _, err := ReadEdgeList(bytes.NewReader([]byte(bad)), true); err == nil {
			t.Fatalf("input %q should fail", bad)
		}
	}
}

func TestString(t *testing.T) {
	g := NewBuilder(false).AddEdge(1, 2).Build()
	if got := g.String(); got != "graph(undirected, 2 vertices, 1 edges)" {
		t.Fatalf("String = %q", got)
	}
}

// TestRestrictFromCSRRoundTrip cuts some partitions' adjacency out of a
// weighted graph and reassembles it: same vertices, same dense indices
// and partitioning, the kept rows intact, the others empty.
func TestRestrictFromCSRRoundTrip(t *testing.T) {
	b := NewBuilder(true)
	for v := VertexID(1); v <= 12; v++ {
		b.AddWeightedEdge(v, v%12+1, float64(v)/2)
		b.AddEdge(v*7, v)
	}
	g := b.Build()
	d := g.Dense()
	pt := d.Partitioning(3)
	offsets, targets, weights := d.Restrict(pt, []int{0, 2})
	part, err := FromCSR(g.Vertices(), offsets, targets, weights)
	if err != nil {
		t.Fatal(err)
	}
	pd := part.Dense()
	if !reflect.DeepEqual(pd.Partitioning(3), pt) {
		t.Fatal("partitioning differs after the round trip")
	}
	for i, v := range g.Vertices() {
		var want []VertexID
		if pt.PartOf[i] != 1 {
			want = g.OutNeighbors(v)
		}
		if got := part.OutNeighbors(v); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("vertex %d: neighbors %v, want %v", v, got, want)
		}
		lo, hi := pd.Offsets[i], pd.Offsets[i+1]
		if pt.PartOf[i] != 1 && !reflect.DeepEqual(pd.Weights[lo:hi], d.Weights[d.Offsets[i]:d.Offsets[i+1]]) {
			t.Fatalf("vertex %d: weights differ", v)
		}
	}
}

// TestFromCSRRejectsMalformedArrays: arrays from another process are
// validated, not trusted.
func TestFromCSRRejectsMalformedArrays(t *testing.T) {
	ids := []VertexID{1, 2, 3}
	for what, c := range map[string]struct {
		ids              []VertexID
		offsets, targets []int32
		weights          []float64
	}{
		"unsorted ids":        {[]VertexID{1, 3, 2}, []int32{0, 0, 0, 0}, nil, nil},
		"duplicate ids":       {[]VertexID{1, 1, 2}, []int32{0, 0, 0, 0}, nil, nil},
		"short offsets":       {ids, []int32{0, 1}, []int32{0}, nil},
		"offsets not from 0":  {ids, []int32{1, 1, 1, 1}, []int32{0}, nil},
		"offsets past end":    {ids, []int32{0, 1, 2, 3}, []int32{0}, nil},
		"decreasing offsets":  {ids, []int32{0, 2, 1, 2}, []int32{0, 1}, nil},
		"target out of range": {ids, []int32{0, 1, 1, 1}, []int32{3}, nil},
		"negative target":     {ids, []int32{0, 1, 1, 1}, []int32{-1}, nil},
		"weights mismatch":    {ids, []int32{0, 1, 1, 1}, []int32{0}, []float64{1, 2}},
	} {
		if _, err := FromCSR(c.ids, c.offsets, c.targets, c.weights); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if _, err := FromCSR(ids, []int32{0, 1, 1, 2}, []int32{2, 0}, nil); err != nil {
		t.Errorf("well-formed arrays rejected: %v", err)
	}
}
