package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// TestDenseMinAppliesAscendingReached runs FoldMin supersteps of CC's
// shape on one engine, and on one host, at every workset density —
// empty, one vertex, sparse, either side of one in eight, half, all but
// one, all, and random sizes in between, in a shuffled order so a dense
// step follows a sparse one and back. For each, Run with LocalFold off
// and on, and ColHosted.Fold after an expansion, must hand every
// partition's Apply its owned destinations in strictly ascending order,
// exactly those some message reached, each with the minimum of the
// values sent to it.
func TestDenseMinAppliesAscendingReached(t *testing.T) {
	const parts = 4
	d := gen.Grid(16, 16).Dense()
	pt := d.Partitioning(parts)
	nv := d.NumVertices()
	rng := rand.New(rand.NewSource(3))
	var active []int32
	label := func(src int32) uint64 { return uint64(src*37%int32(nv)) + 1 }
	var applied [parts][]int32
	var vals [parts][]uint64
	step := &ColStep[uint64]{
		Adj: d, Parts: pt, Expand: ExpandCopy, Fold: FoldMin,
		Source: func(part int) (idx KeyCol, val ValCol[uint64]) {
			for _, src := range active {
				if int(pt.PartOf[src]) == part {
					idx, val = append(idx, src), append(val, label(src))
				}
			}
			return idx, val
		},
		Apply: func(part int, dst KeyCol, val ValCol[uint64]) error {
			applied[part] = append(applied[part], dst...)
			vals[part] = append(vals[part], val...)
			return nil
		},
	}
	sizes := []int{0, 1, 2, nv / 64, nv/8 - 1, nv / 8, nv/8 + 1, nv / 2, nv - 1, nv}
	for range 20 {
		sizes = append(sizes, rng.Intn(nv+1))
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	e := &ColEngine[uint64]{Parallelism: parts}
	h := NewColHosted(&ColEngine[uint64]{Parallelism: parts}, step, []int{0, 1, 2, 3})
	for _, n := range sizes {
		active = active[:0]
		for _, i := range rng.Perm(nv)[:n] {
			active = append(active, int32(i))
		}
		want := map[int32]uint64{}
		for _, src := range active {
			for j := d.Offsets[src]; j < d.Offsets[src+1]; j++ {
				if old, ok := want[d.Targets[j]]; !ok || label(src) < old {
					want[d.Targets[j]] = label(src)
				}
			}
		}
		check := func(what string) {
			t.Helper()
			got := map[int32]uint64{}
			for p := range applied {
				if !slices.IsSorted(applied[p]) || len(slices.Compact(slices.Clone(applied[p]))) != len(applied[p]) {
					t.Fatalf("%d active, %s: partition %d applied %v, not strictly ascending", n, what, p, applied[p])
				}
				for i, dst := range applied[p] {
					if int(pt.PartOf[dst]) != p {
						t.Fatalf("%d active, %s: partition %d applied vertex %d, which it does not own", n, what, p, dst)
					}
					got[dst] = vals[p][i]
				}
				applied[p], vals[p] = applied[p][:0], vals[p][:0]
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%d active, %s: applied %d destinations, the %d reached, or other minima", n, what, len(got), len(want))
			}
		}
		for _, local := range []bool{false, true} {
			step.LocalFold = local
			if _, err := e.Run(step, nil); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("Run, LocalFold %v", local))
		}
		h.Begin(func() {})
		if err := h.Expand(&HostedOut{}); err != nil {
			t.Fatal(err)
		}
		h.Commit()
		if err := h.Fold(nil); err != nil {
			t.Fatal(err)
		}
		check("ColHosted.Fold")
	}
}

// TestDenseMinScratchResetLeavesZero runs FoldMin supersteps on a
// Twitter graph, with LocalFold off and on — clean, and faulted after
// none, half and all but one of their messages — and checks that each
// leaves the local-fold scratch all +0 and unmarked and no fold scratch
// entry marked reached, and that the retry after a fault applies what a
// never-faulted twin engine does. A min step leaves its minima in the
// fold scratch: a FoldSum step after it on the same engine must still
// sum from zero.
func TestDenseMinScratchResetLeavesZero(t *testing.T) {
	d := gen.Twitter(300, 7).Dense()
	pt := d.Partitioning(4)
	vals := make([][]uint64, len(pt.Owned))
	for p, owned := range pt.Owned {
		for _, src := range owned {
			vals[p] = append(vals[p], uint64(src%97))
		}
	}
	applied := map[int32]uint64{}
	step := &ColStep[uint64]{
		Adj: d, Parts: pt, Expand: ExpandCopy, Fold: FoldMin,
		Source: colSource(pt.Owned, vals),
		Apply: func(_ int, dst KeyCol, val ValCol[uint64]) error {
			for i, d := range dst {
				applied[d] = val[i]
			}
			return nil
		},
	}
	run := func(e *ColEngine[uint64], fi *FaultInjection) (map[int32]uint64, ColStats, error) {
		clear(applied)
		stats, err := e.Run(step, fi)
		return maps.Clone(applied), stats, err
	}
	checkClean := func(what string, e *ColEngine[uint64]) {
		t.Helper()
		if i := slices.IndexFunc(e.lacc, func(v uint64) bool { return v != 0 }); i >= 0 {
			t.Fatalf("%s: local-fold scratch holds %d at %d", what, e.lacc[i], i)
		}
		if i := slices.Index(e.lseen, 1); i >= 0 {
			t.Fatalf("%s: local-fold scratch still marks %d", what, i)
		}
		if i := slices.IndexFunc(e.reached, func(m byte) bool { return m != 0 }); i >= 0 {
			t.Fatalf("%s: fold scratch still marks %d reached", what, i)
		}
	}
	for _, local := range []bool{false, true} {
		step.LocalFold, step.Fold = local, FoldMin
		want, stats, err := run(&ColEngine[uint64]{Parallelism: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || stats.Messages < 2 {
			t.Fatalf("the twin applied %d vertices after %d messages", len(want), stats.Messages)
		}
		e := &ColEngine[uint64]{Parallelism: 4}
		if _, _, err := run(e, nil); err != nil {
			t.Fatal(err)
		}
		checkClean(fmt.Sprintf("LocalFold %v, clean run", local), e)
		for _, after := range []int64{0, stats.Messages / 2, stats.Messages - 1} {
			what := fmt.Sprintf("LocalFold %v, fault after %d of %d messages", local, after, stats.Messages)
			_, _, err := run(e, &FaultInjection{Workers: []int{0}, Partitions: []int{0}, AfterRecords: after})
			var wf *WorkerFailure
			if !errors.As(err, &wf) {
				t.Fatalf("%s: err = %v, want a WorkerFailure", what, err)
			}
			checkClean(what, e)
			got, _, err := run(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s: the retry applied other minima than a never-faulted twin", what)
			}
			checkClean(what+", retried", e)
		}
		step.Fold = FoldSum
		sums, _, err := run(&ColEngine[uint64]{Parallelism: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := run(e, nil); err != nil || !maps.Equal(got, sums) {
			t.Fatalf("LocalFold %v: a FoldSum step after FoldMin ones applied other sums than a fresh engine (err %v)", local, err)
		}
		checkClean(fmt.Sprintf("LocalFold %v, FoldSum step", local), e)
	}
}

// TestDenseMinMatchesMapReference holds the min fold, for each value
// type a min-fold job runs on — uint64 (CC), int64 and float64 (SSSP) —
// to the plainest fold there is: a map, filled message by message in
// emission order, that takes a message where nothing arrived yet and
// otherwise only if it is strictly less. Values repeat, so the first of
// equal values must be the one kept: with float64, −0 and +0 are equal
// and distinct, and which one a destination ends with depends on the
// order. With LocalFold each source partition fills its own map first,
// and those merge in ascending source order — what the hosted halves
// do whatever the step's LocalFold says. For every ExpandKind, with and
// without edge weights, what Run hands Apply, and what ColHosted.Fold
// does, must equal the reference bit for bit. The fold has no sentinel
// value: a message carrying the type's greatest value (a label of
// vertex ID 2⁶⁴−1, a distance of +Inf) is folded and applied like any
// other, and so are the values an AddWeight wraps around to.
func TestDenseMinMatchesMapReference(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		denseMinReference(t, []uint64{0, 1, 2, 3, 5, 8, math.MaxUint64 - 1, math.MaxUint64})
	})
	t.Run("int64", func(t *testing.T) {
		denseMinReference(t, []int64{math.MinInt64, -3, -1, 0, 1, 2, math.MaxInt64})
	})
	t.Run("float64", func(t *testing.T) {
		denseMinReference(t, []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1.5, -2, math.MaxFloat64, math.Inf(1)})
	})
}

// valBits returns v's 64-bit wire pattern, which tells -0 from +0.
func valBits[V ColValue](v V) uint64 {
	return binary.LittleEndian.Uint64(AppendVals(nil, []V{v}))
}

// denseMinReference is TestDenseMinMatchesMapReference for one value
// type, with messages drawn from values.
func denseMinReference[V ColValue](t *testing.T, values []V) {
	const parts, batch = 3, 5
	type update struct {
		dst  int32
		bits uint64
	}
	all := []int{0, 1, 2}
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		b := graph.NewBuilder(true)
		for e := 0; e < 300; e++ {
			src, dst := graph.VertexID(rng.Intn(60)), graph.VertexID(rng.Intn(60))
			if weighted {
				b.AddWeightedEdge(src, dst, float64(rng.Intn(8)+1))
			} else {
				b.AddEdge(src, dst)
			}
		}
		d := b.Build().Dense()
		pt := d.Partitioning(parts)
		idx, vals := make([][]int32, parts), make([][]V, parts)
		for p, owned := range pt.Owned {
			for i := 0; i < 2*len(owned); i++ {
				idx[p] = append(idx[p], owned[rng.Intn(len(owned))])
				vals[p] = append(vals[p], values[rng.Intn(len(values))])
			}
		}
		for _, expand := range []ExpandKind{ExpandCopy, ExpandAddWeight, ExpandMulWeight} {
			t.Run(fmt.Sprintf("weighted=%v/expand=%d", weighted, expand), func(t *testing.T) {
				var applied [parts][]update
				step := &ColStep[V]{
					Adj: d, Parts: pt, Expand: expand, Fold: FoldMin,
					Source: colSource(idx, vals),
					Apply: func(p int, dst KeyCol, val ValCol[V]) error {
						for i, d := range dst {
							applied[p] = append(applied[p], update{d, valBits(val[i])})
						}
						return nil
					},
				}
				foldInto := func(acc map[int32]V, dst int32, v V) {
					if old, seen := acc[dst]; !seen || v < old {
						acc[dst] = v
					}
				}
				perSource := make([]map[int32]V, parts)
				direct, merged := map[int32]V{}, map[int32]V{}
				for p := range all {
					perSource[p] = map[int32]V{}
					for i, src := range idx[p] {
						for j := d.Offsets[src]; j < d.Offsets[src+1]; j++ {
							v := vals[p][i]
							switch {
							case expand == ExpandAddWeight && d.Weights != nil:
								v += V(d.Weights[j])
							case expand == ExpandAddWeight:
								v += V(1)
							case expand == ExpandMulWeight && d.Weights != nil:
								v *= V(d.Weights[j])
							}
							foldInto(perSource[p], d.Targets[j], v)
							foldInto(direct, d.Targets[j], v)
						}
					}
					// One value per destination and source: the order within
					// a source cannot matter.
					for dst, v := range perSource[p] {
						foldInto(merged, dst, v)
					}
				}
				byPart := func(total map[int32]V) (out [parts][]update) {
					for _, dst := range slices.Sorted(maps.Keys(total)) {
						q := pt.PartOf[dst]
						out[q] = append(out[q], update{dst, valBits(total[dst])})
					}
					return out
				}
				for _, local := range []bool{false, true} {
					step.LocalFold = local
					want := byPart(direct)
					if local {
						want = byPart(merged)
					}
					applied = [parts][]update{}
					if _, err := (&ColEngine[V]{Parallelism: parts, BatchSize: batch}).Run(step, nil); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(applied, want) {
						t.Errorf("LocalFold %v: Run applied %v, the reference %v", local, applied, want)
					}
					applied = [parts][]update{}
					h := NewColHosted(&ColEngine[V]{Parallelism: parts, BatchSize: batch}, step, all)
					h.Begin(func() {})
					if err := h.Expand(&HostedOut{}); err != nil {
						t.Fatal(err)
					}
					h.Commit()
					if err := h.Fold(nil); err != nil {
						t.Fatal(err)
					}
					if want := byPart(merged); !reflect.DeepEqual(applied, want) {
						t.Errorf("LocalFold %v: ColHosted.Fold applied %v, the per-source reference %v", local, applied, want)
					}
				}
			})
		}
	}
}
