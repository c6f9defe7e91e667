package exec

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"optiflow/internal/graph"
)

// TestLocalFoldMatchesMapReference holds the specialised local-fold
// loops to the plainest combiner there is: per producing partition, fold
// every message into a map in emission order, then emit the folded rows
// in ascending destination order, cut into batches. For every ExpandKind
// × FoldKind, on a graph with and without edge weights, the exchange
// bytes of every (source, destination) pair must be equal. Rows repeat a
// source, and batches are small, so flushes fall mid-pair.
func TestLocalFoldMatchesMapReference(t *testing.T) {
	const parts, batch = 3, 5
	type row struct {
		src int32
		val float64
	}
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		b := graph.NewBuilder(true)
		for e := 0; e < 300; e++ {
			src, dst := graph.VertexID(rng.Intn(60)), graph.VertexID(rng.Intn(60))
			if weighted {
				b.AddWeightedEdge(src, dst, float64(rng.Intn(9))+0.25)
			} else {
				b.AddEdge(src, dst)
			}
		}
		d := b.Build().Dense()
		if (d.Weights != nil) != weighted {
			t.Fatalf("weighted=%v: adjacency has weights %v", weighted, d.Weights != nil)
		}
		pt := d.Partitioning(parts)
		scale := make([]float64, len(d.Targets))
		for j := range scale {
			scale[j] = rng.Float64()
		}
		// rows[p] is what partition p's source emits: its vertices, some
		// twice, with values spread enough to make both folds matter.
		rows := make([][]row, parts)
		for p, owned := range pt.Owned {
			for i := 0; i < 2*len(owned); i++ {
				rows[p] = append(rows[p], row{owned[rng.Intn(len(owned))], float64(rng.Intn(1000)) / 8})
			}
		}
		for _, expand := range []ExpandKind{ExpandCopy, ExpandAddWeight, ExpandMulScale} {
			for _, fold := range []FoldKind{FoldMin, FoldSum} {
				t.Run(fmt.Sprintf("weighted=%v/expand=%d/fold=%d", weighted, expand, fold), func(t *testing.T) {
					step := &ColStep[float64]{
						Adj: d, Parts: pt, Expand: expand, Scale: scale, Fold: fold, LocalFold: true,
						Source: func(p int, emit func(int32, float64) bool) error {
							for _, r := range rows[p] {
								if !emit(r.src, r.val) {
									break
								}
							}
							return nil
						},
						Apply: func(int, KeyCol, ValCol[float64]) error { return nil },
					}
					// The sink runs on every producing task's goroutine at once,
					// each writing only its own row.
					var got, want [parts][parts][]byte
					e := &ColEngine[float64]{Parallelism: parts, BatchSize: batch}
					all := []int{0, 1, 2}
					if _, err := e.expandHalf(step, all, func(src, dst int, b *ColBatch[float64]) {
						got[src][dst] = b.AppendColumns(got[src][dst])
					}); err != nil {
						t.Fatal(err)
					}

					for p := range all {
						acc := map[int32]float64{}
						for _, r := range rows[p] {
							for j := d.Offsets[r.src]; j < d.Offsets[r.src+1]; j++ {
								v := r.val
								switch {
								case expand == ExpandAddWeight && d.Weights != nil:
									v += d.Weights[j]
								case expand == ExpandAddWeight:
									v++
								case expand == ExpandMulScale:
									v *= scale[j]
								}
								old, seen := acc[d.Targets[j]]
								switch {
								case !seen:
									acc[d.Targets[j]] = v
								case fold == FoldMin:
									acc[d.Targets[j]] = min(old, v)
								default:
									acc[d.Targets[j]] = old + v
								}
							}
						}
						cut := make([]ColBatch[float64], parts)
						flush := func(q int) {
							if cut[q].Len() > 0 {
								want[p][q] = cut[q].AppendColumns(want[p][q])
								cut[q] = ColBatch[float64]{}
							}
						}
						for _, dst := range slices.Sorted(maps.Keys(acc)) {
							q := int(pt.PartOf[dst])
							cut[q].push(dst, acc[dst])
							if cut[q].Len() == batch {
								flush(q)
							}
						}
						for q := range cut {
							flush(q)
						}
					}
					for src := range want {
						for dst, w := range want[src] {
							if !bytes.Equal(got[src][dst], w) {
								t.Errorf("%d -> %d: %d exchange bytes differ from the reference's %d", src, dst, len(got[src][dst]), len(w))
							}
						}
					}
				})
			}
		}
	}
}
