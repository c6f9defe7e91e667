package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"optiflow/internal/graph"
)

// TestFaultClockStrikesAfterRow schedules a fault after every record
// count from 0 to Σdeg on a weighted graph with sink rows and skewed
// degrees, through Run with LocalFold off and on and through
// expandHalf, under both folds and both expand kinds the graph's
// weights decide. The clock adds a source row's messages to the count,
// then checks it: the *WorkerFailure's Processed must be the first
// row-prefix sum, over the partitions in expansion order, that exceeds
// AfterRecords, and where none does the run must finish like a
// never-faulted twin. A faulted run must apply nothing and leave the
// fold's reached marks and the local-fold scratch clean — and the fold
// scratch too where nothing folds into it, in expandHalf — and a clean
// retry on the same engine must apply, or hand its sink, what the twin
// does, bit for bit.
func TestFaultClockStrikesAfterRow(t *testing.T) {
	const parts, nv = 3, 30
	b := graph.NewBuilder(true)
	for v := graph.VertexID(0); v < nv; v++ {
		b.AddVertex(v)
		deg := int(v % 4) // every fourth vertex is a sink
		if v%10 == 3 {
			deg = 17
		}
		for k := 0; k < deg; k++ {
			b.AddWeightedEdge(v, (v*7+graph.VertexID(k)*5+1)%nv, float64(k%3)+0.5)
		}
	}
	d := b.Build().Dense()
	pt := d.Partitioning(parts)
	// Partition p's rows: its vertices backwards, then two of them
	// again with other values.
	idx, val := make([][]int32, parts), make([][]float64, parts)
	for p, owned := range pt.Owned {
		rows := append(slices.Clone(owned), owned[0], owned[len(owned)/2])
		slices.Reverse(rows[:len(owned)])
		for i, src := range rows {
			idx[p] = append(idx[p], src)
			val[p] = append(val[p], float64(src%5)+float64(i)/8)
		}
	}
	if !slices.ContainsFunc(idx[0], func(src int32) bool { return d.Degree(src) == 0 }) {
		t.Fatal("partition 0 has no sink row")
	}
	// prefix lists the running message count after each row, the
	// partitions expanded in order.
	prefix := func(order []int) (sums []int64) {
		var m int64
		for _, p := range order {
			for _, src := range idx[p] {
				m += int64(d.Degree(src))
				sums = append(sums, m)
			}
		}
		return sums
	}

	var applied []byte
	applies := 0
	step := &ColStep[float64]{
		Adj: d, Parts: pt, Source: colSource(idx, val),
		Apply: func(p int, dst KeyCol, v ValCol[float64]) error {
			applies++
			for i, x := range dst {
				applied = binary.LittleEndian.AppendUint32(applied, uint32(p))
				applied = binary.LittleEndian.AppendUint32(applied, uint32(x))
				applied = binary.LittleEndian.AppendUint64(applied, math.Float64bits(v[i]))
			}
			return nil
		},
	}
	run := func(local bool) func(*ColEngine[float64], *FaultInjection) ([]byte, error) {
		return func(e *ColEngine[float64], fi *FaultInjection) ([]byte, error) {
			step.LocalFold, applied, applies = local, nil, 0
			_, err := e.Run(step, fi)
			return applied, err
		}
	}
	hosted := []int{2, 0, 1}
	expandHalf := func(e *ColEngine[float64], fi *FaultInjection) ([]byte, error) {
		applies = 0
		var out []byte
		_, err := e.expandHalf(step, hosted, fi, func(src, dst int, b *ColBatch[float64]) {
			out = binary.LittleEndian.AppendUint32(out, uint32(src))
			out = binary.LittleEndian.AppendUint32(out, uint32(dst))
			out = b.AppendColumns(out)
		})
		return out, err
	}
	modes := []struct {
		name  string
		order []int
		run   func(*ColEngine[float64], *FaultInjection) ([]byte, error)
	}{
		{"Run", []int{0, 1, 2}, run(false)},
		{"Run/LocalFold", []int{0, 1, 2}, run(true)},
		{"expandHalf", hosted, expandHalf},
	}
	for _, fold := range []FoldKind{FoldMin, FoldSum} {
		for _, expand := range []ExpandKind{ExpandCopy, ExpandAddWeight} {
			step.Fold, step.Expand = fold, expand
			for _, m := range modes {
				what := fmt.Sprintf("fold=%d/expand=%d/%s", fold, expand, m.name)
				checkClean := func(e *ColEngine[float64], when string) {
					t.Helper()
					if i := firstSet(e.reached); i >= 0 {
						t.Fatalf("%s, %s: fold scratch still marks %d reached", what, when, i)
					}
					if i := slices.IndexFunc(e.lacc, func(v float64) bool { return math.Float64bits(v) != 0 }); i >= 0 {
						t.Fatalf("%s, %s: local-fold scratch holds %v at %d", what, when, e.lacc[i], i)
					}
					if i := firstSet(e.lseen); i >= 0 {
						t.Fatalf("%s, %s: local-fold scratch still marks %d", what, when, i)
					}
					if i := firstSet(e.acc); m.name == "expandHalf" && i >= 0 {
						t.Fatalf("%s, %s: expandHalf wrote %v into the fold scratch at %d", what, when, e.acc[i], i)
					}
				}
				sums := prefix(m.order)
				total := sums[len(sums)-1]
				want, err := m.run(&ColEngine[float64]{Parallelism: parts}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || total < 2 {
					t.Fatalf("%s: the twin produced %d bytes from %d messages", what, len(want), total)
				}
				e := &ColEngine[float64]{Parallelism: parts}
				for after := int64(0); after <= total; after++ {
					fi := &FaultInjection{Workers: []int{1}, Partitions: []int{1}, AfterRecords: after}
					got, err := m.run(e, fi)
					i := slices.IndexFunc(sums, func(s int64) bool { return s > after })
					if i < 0 {
						if err != nil || !bytes.Equal(got, want) {
							t.Fatalf("%s, fault after %d of %d: err %v, or other results than the twin", what, after, total, err)
						}
						continue
					}
					var wf *WorkerFailure
					if !errors.As(err, &wf) {
						t.Fatalf("%s, fault after %d of %d: err = %v, want a WorkerFailure", what, after, total, err)
					}
					if wf.Processed != sums[i] {
						t.Fatalf("%s, fault after %d: Processed %d, want %d, the first row-prefix sum past it", what, after, wf.Processed, sums[i])
					}
					if applies != 0 {
						t.Fatalf("%s, fault after %d: %d Apply calls", what, after, applies)
					}
					checkClean(e, fmt.Sprintf("fault after %d", after))
					if got, err := m.run(e, nil); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s, fault after %d: the retry (err %v) differs from a never-faulted twin", what, after, err)
					}
					checkClean(e, fmt.Sprintf("retry after a fault after %d", after))
				}
			}
		}
	}
}

// firstSet returns the index of the first entry of s that is not the
// zero value, or -1.
func firstSet[T comparable](s []T) int {
	var zero T
	return slices.IndexFunc(s, func(x T) bool { return x != zero })
}
