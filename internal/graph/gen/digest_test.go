package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"optiflow/internal/graph"
)

// graphDigest hashes everything a graph exposes about its layout:
// directedness, the sorted vertex IDs, the CSR offsets, the stored
// targets and weights in storage order, the logical edge count and the
// dense view's target indices. Two graphs with equal digests are
// bit-identical to every reader of the graph package.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	if g.Directed() {
		put(1)
	} else {
		put(0)
	}
	ids := g.Vertices()
	put(uint64(len(ids)))
	for _, v := range ids {
		put(uint64(v))
	}
	d := g.Dense()
	put(uint64(len(d.Offsets)))
	for _, o := range d.Offsets {
		put(uint64(o))
	}
	var weights []float64
	g.Edges(func(e graph.Edge) {
		put(uint64(e.Dst))
		weights = append(weights, e.Weight)
	})
	for _, w := range weights {
		put(math.Float64bits(w))
	}
	put(uint64(g.NumEdges()))
	put(uint64(len(d.Targets)))
	for _, t := range d.Targets {
		put(uint64(t))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// generatorDigestsWant pins every generator's output. A change to a
// generator's sampling, to the Builder or to the CSR layout moves one of
// these; update them only for a deliberate change of a generated graph.
var generatorDigestsWant = map[string]string{
	"Chain(1)":                             "c41745ab0e836fc065a890251f3021ec0e39fc79a60593e63da3bd9638e3d83e",
	"Chain(10)":                            "c40e346a8947d8e5a6e0c470fd8baeb891da22698ea3fa8ff4b5719a341ec784",
	"Components(4,25,0.1,5)":               "5c02a4522767110d548ab2bacabdb44016d1c61bc2086bc20806767c409e1969",
	"Demo":                                 "1487e16846f33302eea753dbb45a57e2438d200a24a34cf42e0da4ff567f1fda",
	"DemoDirected":                         "212239922a1e53ef703dcb8ad98a721a9ee82fe7bf7b0f58a07e7ac83092c26b",
	"ErdosRenyi(120,0.05,4,false)":         "7d2b41ea5a430edbff4c9e3ed73f5e631ff0e1bb1322911b25b68105f8898342",
	"ErdosRenyi(120,0.05,4,true)":          "e8a80def63eba3d0b8921cb3244566c0aed8f72a63ddab1b29576f0c0133f72a",
	"Grid(48,48)":                          "0f724d768b37fe8f7decc53c4e71859cca8640ee29c85dfb05844190e65b66aa",
	"Grid(8,8)":                            "06dfaabaa5424dd87b86f73a199f102ec65b385483af97cc43bcf801558b28bc",
	"RMAT(8,4,0.57,0.19,0.19,0.05,3,true)": "0e724c183e75a4a1b3d6752873d162f5972a2814f4969d4e0057b2631bf9e7be",
	"Star(6)":                              "ba22460ea78817e248ce857728eb98b6274cafce04a399201b1da9029e795e15",
	"Twitter(300,20150531)":                "cb51f7eb3989d522dca2356f7fb29a2c29e480a6da5c4f4f84718809ca101b83",
	"Twitter(4000,20150531)":               "bc060b46bf19fa893cc779c1911d396ac4d22c59f172d921347ef0545a8d2845",
}

func TestGeneratorDigests(t *testing.T) {
	demo, _ := Demo()
	demoDirected, _ := DemoDirected()
	graphs := map[string]*graph.Graph{
		"Twitter(4000,20150531)":               Twitter(4000, 20150531),
		"Twitter(300,20150531)":                Twitter(300, 20150531),
		"Grid(48,48)":                          Grid(48, 48),
		"Grid(8,8)":                            Grid(8, 8),
		"Demo":                                 demo,
		"DemoDirected":                         demoDirected,
		"Chain(10)":                            Chain(10),
		"Chain(1)":                             Chain(1),
		"Star(6)":                              Star(6),
		"RMAT(8,4,0.57,0.19,0.19,0.05,3,true)": RMAT(8, 4, 0.57, 0.19, 0.19, 0.05, 3, true),
		"ErdosRenyi(120,0.05,4,true)":          ErdosRenyi(120, 0.05, 4, true),
		"ErdosRenyi(120,0.05,4,false)":         ErdosRenyi(120, 0.05, 4, false),
		"Components(4,25,0.1,5)":               Components(4, 25, 0.1, 5),
	}
	if len(graphs) != len(generatorDigestsWant) {
		t.Errorf("%d graphs, %d digests", len(graphs), len(generatorDigestsWant))
	}
	for name, g := range graphs {
		if sum := graphDigest(g); sum != generatorDigestsWant[name] {
			t.Errorf("%s: digest %s, want %s", name, sum, generatorDigestsWant[name])
		}
	}
}
