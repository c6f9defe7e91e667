package state

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// runsStore is a float64 store over 40 vertices in 3 partitions whose
// present slots form runs of one to four, holding -0, +Inf, NaN and the
// greatest float64 among ordinary values, with some slots dirty.
func runsStore(t testing.TB) *DenseStore[float64] {
	t.Helper()
	b := graph.NewBuilder(true)
	for v := 0; v < 40; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	d := b.Build().Dense()
	s := NewDenseStore[float64]("dist", d, d.Partitioning(3))
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), math.MaxFloat64}
	for v := 0; v < 40; v++ {
		if v%5 != 2 && v%7 != 3 {
			s.Put(uint64(v), special[v%len(special)]+float64(v%3))
		}
	}
	s.MarkClean()
	for v := 0; v < 40; v += 6 {
		s.Put(uint64(v), float64(v)/4)
	}
	return s
}

// viewDigestsWant pins the byte views of the byteViewCases fixtures —
// a store with absent slots, a workset whose partition 0 is empty and
// deltas with dirty, clean and cleared partitions — plus the view of a
// partition emptied by ClearPartition and the full and delta views of
// runsStore. A change to how the views are encoded must reproduce every
// byte.
var viewDigestsWant = map[string]string{
	"cleared/partition=1":    "cc6e13fdbc51f8e28610b6fc2366cce1fda88cf1df1a30b6d144556ee0419f38",
	"delta/partition=0":      "8451745b57beae84db81ebcb21eb1c0a7a8a16f2a8b2c0bedb19fcd88ab5a1d1",
	"delta/partition=1":      "9ffc24afb6c7dd3c717d0b911151af02e3cdb5bf1e67f18ab69d52b65c1b601e",
	"delta/partition=2":      "6dc3b3c4eed9a7fda4e47aa625cd8eacc6a4371773fbf5158f1e380a1609db98",
	"dense/partition=0":      "99639f3f4e841d46800d608dca299a7b99731bf2f1367263f62b400890263f16",
	"dense/partition=1":      "ce3c08323cfa98296f84eb658ea9f9b8fc632a1c26feb0229b63b1e84317b6ba",
	"dense/partition=2":      "450b3457cb0f01e5cf0996f20eb83b8f792ff0b4a5e8a1998b52627a12576e9c",
	"runs/delta/partition=0": "5327db10aadb95809dc6e38adda249095d7a3d9e9140b8c0e9af24273dd1f248",
	"runs/delta/partition=1": "ce6b9af7a119edba9ab4f3eafd3b8169c62b5167cf7c17ff9099798c775ac229",
	"runs/delta/partition=2": "c23481c6de2961f80d4c0a0be738ce2ef65afa3793c7934d18602c79323c31b2",
	"runs/partition=0":       "a48ff3faf104e80d1459c1fd0255dfb203edf6251251e62c89fee23e24b55124",
	"runs/partition=1":       "41478361a2d602e4e341459cd8db86a32c219323bf48fcf35229a7c7a87d30e8",
	"runs/partition=2":       "c08ed8251ea57f4702f87ff6fcfb616f5253374ccf82b96b1124fd6b2a979e93",
	"workset/partition=0":    "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
	"workset/partition=1":    "db9728c2cf16ca14f5ea1c57776c35ea39fc0ef2c890478385959aca394730a0",
	"workset/partition=2":    "3a09c30024b799ec5084f644ade45b2ff6acc9a07033c48528cfca1bf87acdb5",
}

func TestByteViewDigests(t *testing.T) {
	got := map[string][]byte{}
	for _, c := range byteViewCases(t) {
		for p := 0; p < 3; p++ {
			got[fmt.Sprintf("%s/partition=%d", c.name, p)] = c.write(p)
		}
	}
	s := byteViewStore(t)
	s.ClearPartition(1)
	got["cleared/partition=1"] = s.AppendPartitionBytes(nil, 1, colbytes.AppendU64Vals)
	f := runsStore(t)
	for p := 0; p < 3; p++ {
		got[fmt.Sprintf("runs/partition=%d", p)] = f.AppendPartitionBytes(nil, p, colbytes.AppendF64Vals)
		got[fmt.Sprintf("runs/delta/partition=%d", p)] = f.AppendDeltaBytes(nil, p, colbytes.AppendF64Vals)
	}
	if len(got) != len(viewDigestsWant) {
		t.Fatalf("%d views, %d digests", len(got), len(viewDigestsWant))
	}
	for name, b := range got {
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != viewDigestsWant[name] {
			t.Errorf("%s: digest %s, want %s", name, sum, viewDigestsWant[name])
		}
	}
}
