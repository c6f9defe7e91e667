package exec

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"optiflow/internal/graph"
)

// TestLocalFoldMatchesMapReference holds both fold kernels to the
// plainest fold there is: a map, filled message by message in emission
// order, source partitions ascending. With LocalFold each source
// partition fills its own map first, and those merge in ascending
// source order. Under FoldSum the reference lists every owned vertex
// too, a vertex no message reached with +0, since a sum fold is dense.
// For every ExpandKind × FoldKind, on a graph with and without edge
// weights, with LocalFold on and off, what Run hands Apply must equal
// the reference bit for bit. With LocalFold, so must what
// ColHosted.Fold applies after the same rows were expanded, and the
// exchange bytes of every (source, destination) pair must equal the
// per-source maps emitted in ascending destination order, cut into
// batches. Rows repeat a source, and batches are small, so flushes fall
// mid-pair. The negative-zero case pins a lone −0 message.
func TestLocalFoldMatchesMapReference(t *testing.T) {
	const parts, batch = 3, 5
	type update struct {
		dst  int32
		bits uint64
	}
	t.Run("negative-zero", sumFoldNegativeZero)
	all := []int{0, 1, 2}
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
		// idx[p], vals[p] are the rows partition p's source returns: its
		// vertices, some twice, with values spread enough to make both
		// folds matter.
		idx, vals := make([][]int32, parts), make([][]float64, parts)
		for p, owned := range pt.Owned {
			for i := 0; i < 2*len(owned); i++ {
				idx[p] = append(idx[p], owned[rng.Intn(len(owned))])
				vals[p] = append(vals[p], float64(rng.Intn(1000))/8)
			}
		}
		for _, expand := range []ExpandKind{ExpandCopy, ExpandAddWeight, ExpandMulWeight} {
			for _, fold := range []FoldKind{FoldMin, FoldSum} {
				t.Run(fmt.Sprintf("weighted=%v/expand=%d/fold=%d", weighted, expand, fold), func(t *testing.T) {
					for _, local := range []bool{false, true} {
						t.Run(fmt.Sprintf("local=%v", local), func(t *testing.T) {
							var applied [parts][]update
							step := &ColStep[float64]{
								Adj: d, Parts: pt, Expand: expand, Fold: fold, LocalFold: local,
								Source: colSource(idx, vals),
								Apply: func(p int, dst KeyCol, val ValCol[float64]) error {
									for i, d := range dst {
										applied[p] = append(applied[p], update{d, math.Float64bits(val[i])})
									}
									return nil
								},
							}

							foldInto := func(acc map[int32]float64, dst int32, v float64) {
								old, seen := acc[dst]
								switch {
								case !seen:
									acc[dst] = v
								case fold == FoldMin:
									acc[dst] = min(old, v)
								default:
									acc[dst] = old + v
								}
							}
							perSource := make([]map[int32]float64, parts)
							total := map[int32]float64{}
							for p := range all {
								perSource[p] = map[int32]float64{}
								for i, src := range idx[p] {
									for j := d.Offsets[src]; j < d.Offsets[src+1]; j++ {
										v := vals[p][i]
										switch {
										case expand == ExpandAddWeight && d.Weights != nil:
											v += d.Weights[j]
										case expand == ExpandAddWeight:
											v++
										case expand == ExpandMulWeight && d.Weights != nil:
											v *= d.Weights[j]
										}
										foldInto(perSource[p], d.Targets[j], v)
										if !local {
											foldInto(total, d.Targets[j], v)
										}
									}
								}
								if local {
									// One value per destination and source: the order within
									// a source cannot matter.
									for dst, v := range perSource[p] {
										foldInto(total, dst, v)
									}
								}
							}
							if fold == FoldSum {
								for _, owned := range pt.Owned {
									for _, dst := range owned {
										if _, ok := total[dst]; !ok {
											total[dst] = 0
										}
									}
								}
							}
							var want [parts][]update
							for _, dst := range slices.Sorted(maps.Keys(total)) {
								q := pt.PartOf[dst]
								want[q] = append(want[q], update{dst, math.Float64bits(total[dst])})
							}

							if _, err := (&ColEngine[float64]{Parallelism: parts, BatchSize: batch}).Run(step, nil); err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(applied, want) {
								t.Errorf("Run applied %v, the reference %v", applied, want)
							}
							if !local {
								return
							}

							applied = [parts][]update{}
							h := NewColHosted(&ColEngine[float64]{Parallelism: parts, BatchSize: batch}, step, all)
							h.Begin(func() {})
							if err := h.Expand(&HostedOut{}); err != nil {
								t.Fatal(err)
							}
							h.Commit()
							if err := h.Fold(nil); err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(applied, want) {
								t.Errorf("ColHosted.Fold applied %v, the reference %v", applied, want)
							}

							var got, cut [parts][parts][]byte
							if _, err := (&ColEngine[float64]{Parallelism: parts, BatchSize: batch}).expandHalf(step, all, nil, func(src, dst int, b *ColBatch[float64]) {
								got[src][dst] = b.AppendColumns(got[src][dst])
							}); err != nil {
								t.Fatal(err)
							}
							for p, acc := range perSource {
								batches := make([]ColBatch[float64], parts)
								flush := func(q int) {
									if batches[q].Len() > 0 {
										cut[p][q] = batches[q].AppendColumns(cut[p][q])
										batches[q] = ColBatch[float64]{}
									}
								}
								for _, dst := range slices.Sorted(maps.Keys(acc)) {
									q := int(pt.PartOf[dst])
									batches[q].Dst, batches[q].Val = append(batches[q].Dst, dst), append(batches[q].Val, acc[dst])
									if batches[q].Len() == batch {
										flush(q)
									}
								}
								for q := range batches {
									flush(q)
								}
							}
							for src := range cut {
								for dst, w := range cut[src] {
									if !bytes.Equal(got[src][dst], w) {
										t.Errorf("%d -> %d: %d exchange bytes differ from the reference's %d", src, dst, len(got[src][dst]), len(w))
									}
								}
							}
						})
					}
				})
			}
		}
	}
}

// sumFoldNegativeZero pins the edges of the sum fold's contract:
// a destination whose only message is −0 folds to +0, since a sum
// starts at +0, and one no message reached is handed to Apply as +0 —
// by Run with LocalFold off and on, and by ColHosted.Fold. Under
// LocalFold the producer's local sum starts at +0 too, so the lone −0
// crosses the exchange as +0: the hosted exchange bytes are pinned. A
// min fold keeps the lone −0, on the exchange too, and hands Apply only
// the destinations reached.
func sumFoldNegativeZero(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	d := b.Build().Dense()
	pt := d.Partitioning(2)
	src, _ := d.IndexOf(0)
	one, _ := d.IndexOf(1)
	negZero := math.Copysign(0, -1)
	for _, fold := range []FoldKind{FoldMin, FoldSum} {
		for _, local := range []bool{false, true} {
			got := map[int32]uint64{}
			step := &ColStep[float64]{
				Adj: d, Parts: pt, Expand: ExpandCopy, Fold: fold, LocalFold: local,
				Source: func(p int) (KeyCol, ValCol[float64]) {
					if int(pt.PartOf[src]) == p {
						return KeyCol{src}, ValCol[float64]{negZero}
					}
					return nil, nil
				},
				Apply: func(p int, dst KeyCol, val ValCol[float64]) error {
					for i, d := range dst {
						got[d] = math.Float64bits(val[i])
					}
					return nil
				},
			}
			want := map[int32]uint64{one: math.Float64bits(negZero)}
			if fold == FoldSum {
				want = map[int32]uint64{}
				for i := range int32(d.NumVertices()) {
					want[i] = 0
				}
			}
			if _, err := (&ColEngine[float64]{Parallelism: 2}).Run(step, nil); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Errorf("fold=%d local=%v: Run applied %v, want %v", fold, local, got, want)
			}
			if !local {
				continue
			}
			clear(got)
			h := NewColHosted(&ColEngine[float64]{Parallelism: 2}, step, []int{0, 1})
			h.Begin(func() {})
			if err := h.Expand(&HostedOut{}); err != nil {
				t.Fatal(err)
			}
			h.Commit()
			crossed := 0.0
			if fold == FoldMin {
				crossed = negZero
			}
			for from, row := range h.held {
				for to, cols := range row {
					var want []byte
					if from == int(pt.PartOf[src]) && to == int(pt.PartOf[one]) {
						want = (&ColBatch[float64]{Dst: KeyCol{one}, Val: ValCol[float64]{crossed}}).AppendColumns(nil)
					}
					if !bytes.Equal(cols, want) {
						t.Errorf("fold=%d: %d -> %d exchanged % x, want % x", fold, from, to, cols, want)
					}
				}
			}
			if err := h.Fold(nil); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Errorf("fold=%d: ColHosted.Fold applied %v, want %v", fold, got, want)
			}
		}
	}
}
