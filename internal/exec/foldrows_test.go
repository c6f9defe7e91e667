package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"optiflow/internal/graph"
)

// TestFoldRowsStopsBeforeCrossingRow holds foldRows, the expansion's
// row loops, to a message-by-message reference for every fold target
// (a min with marks, a sum without and with marks) and every expand
// kind, on a graph with and without weights, sink rows and a hub, at
// every fault limit from -1 to Σdeg. foldRows must return the first
// row-prefix sum of messages past the limit (Σdeg if none is), and
// leave the scratch and the marks as folding exactly the rows before
// that row would: the row that takes the count past the limit is
// counted, never folded.
func TestFoldRowsStopsBeforeCrossingRow(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		b := graph.NewBuilder(true)
		for v := graph.VertexID(0); v < 40; v++ {
			b.AddVertex(v)
			deg := rng.Intn(4)
			if v%9 == 0 {
				deg = 0
			}
			if v == 7 {
				deg = 25
			}
			for k := 0; k < deg; k++ {
				w := 1.0
				if weighted {
					w = float64(rng.Intn(7)) - 2.5
				}
				b.AddWeightedEdge(v, graph.VertexID(rng.Intn(40)), w)
			}
		}
		d := b.Build().Dense()
		var idx KeyCol
		var val ValCol[float64]
		for _, i := range rng.Perm(d.NumVertices()) {
			idx, val = append(idx, int32(i)), append(val, float64(rng.Intn(9))-4)
		}
		idx, val = append(idx, idx[3]), append(val, math.Copysign(0, -1))
		var prefix []int64
		var total int64
		for _, src := range idx {
			total += int64(d.Degree(src))
			prefix = append(prefix, total)
		}
		for _, expand := range []ExpandKind{ExpandCopy, ExpandAddWeight, ExpandMulWeight} {
			for _, target := range []string{"min", "sum", "marked-sum"} {
				step := &ColStep[float64]{Adj: d, Expand: expand, Fold: FoldSum}
				if target == "min" {
					step.Fold = FoldMin
				}
				what := fmt.Sprintf("weighted=%v/expand=%d/%s", weighted, expand, target)
				for limit := int64(-1); limit <= total; limit++ {
					k := slices.IndexFunc(prefix, func(s int64) bool { return s > limit })
					wantM := total
					if k < 0 {
						k = len(idx)
					} else {
						wantM = prefix[k]
					}
					nv := d.NumVertices()
					wantAcc, wantMarks := make([]float64, nv), make([]byte, nv)
					for r, src := range idx[:k] {
						for j := d.Offsets[src]; j < d.Offsets[src+1]; j++ {
							msg, dst := val[r], d.Targets[j]
							switch {
							case expand == ExpandAddWeight && d.Weights != nil:
								msg += d.Weights[j]
							case expand == ExpandAddWeight:
								msg++
							case expand == ExpandMulWeight && d.Weights != nil:
								msg *= d.Weights[j]
							}
							switch {
							case target != "min":
								wantAcc[dst] += msg
							case wantMarks[dst] == 0 || msg < wantAcc[dst]:
								wantAcc[dst] = msg
							}
							wantMarks[dst] = 1
						}
					}
					acc, marks := make([]float64, nv), make([]byte, nv)
					if target == "sum" {
						marks, wantMarks = nil, nil
					}
					if m := foldRows(step, idx, val, acc, marks, 0, limit); m != wantM {
						t.Fatalf("%s, limit %d: counted %d messages, want %d", what, limit, m, wantM)
					}
					for i := range acc {
						if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) {
							t.Fatalf("%s, limit %d: vertex %d folded to %v, want %v from the %d rows before the crossing one", what, limit, i, acc[i], wantAcc[i], k)
						}
					}
					if !slices.Equal(marks, wantMarks) {
						t.Fatalf("%s, limit %d: marks differ from the %d rows before the crossing one", what, limit, k)
					}
				}
			}
		}
	}
}

// TestRunRejectsUnevenSourceColumns hands Run a Source whose value
// column is shorter than its vertex column: the superstep fails with an
// error before any Apply, and does not panic.
func TestRunRejectsUnevenSourceColumns(t *testing.T) {
	d := graph.NewBuilder(true).AddEdge(0, 1).AddEdge(1, 0).Build().Dense()
	applied := false
	step := &ColStep[uint64]{
		Adj: d, Parts: d.Partitioning(1), Expand: ExpandCopy, Fold: FoldMin,
		Source: func(int) (KeyCol, ValCol[uint64]) { return KeyCol{0, 1}, ValCol[uint64]{7} },
		Apply:  func(int, KeyCol, ValCol[uint64]) error { applied = true; return nil },
	}
	if _, err := (&ColEngine[uint64]{Parallelism: 1}).Run(step, nil); err == nil || applied {
		t.Fatalf("err = %v, applied %v: want an error and no Apply", err, applied)
	}
}
