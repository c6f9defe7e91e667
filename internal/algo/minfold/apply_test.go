package minfold

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/state"
)

// TestApplyMatchesPerVertexReference drives the column apply with
// random candidate columns — ties with the current value, repeated
// values, ±0, +Inf, each type's greatest value, a NaN, and
// destinations whose slot is absent — and holds it to a per-vertex map
// reference and to a twin store lowered by SetSlot vertex by vertex,
// under a SnapshotShared capture and under a hosted Recapture/Revert
// attempt.
func TestApplyMatchesPerVertexReference(t *testing.T) {
	for _, recapture := range []bool{false, true} {
		name := "snapshot-shared"
		if recapture {
			name = "recapture"
		}
		t.Run(name+"/uint64", func(t *testing.T) {
			applyReference(t, recapture, []uint64{0, 1, 2, 3, 7, math.MaxUint64 - 1, math.MaxUint64})
		})
		t.Run(name+"/int64", func(t *testing.T) {
			applyReference(t, recapture, []int64{math.MinInt64, -1, 0, 1, 5, math.MaxInt64})
		})
		t.Run(name+"/float64", func(t *testing.T) {
			applyReference(t, recapture, []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 2,
				math.MaxFloat64, math.Inf(1), math.NaN()})
		})
	}
}

// bits is v's wire pattern, so a NaN equals itself and -0 differs
// from +0.
func bits[V exec.ColValue](v V) string { return string(exec.AppendVals(nil, []V{v})) }

// storeViews returns every partition's full view of s.
func storeViews[V exec.ColValue](s *state.DenseStore[V]) [][]byte {
	out := make([][]byte, s.NumPartitions())
	for p := range out {
		out[p] = s.AppendPartitionBytes(nil, p, exec.AppendVals[V])
	}
	return out
}

// storeTwin returns a clean copy of s, restored from its partition
// views.
func storeTwin[V exec.ColValue](t *testing.T, s *state.DenseStore[V], g *graph.Graph, pt *graph.Partitioning) *state.DenseStore[V] {
	twin := state.NewDenseStore[V](s.Name(), g.Dense(), pt)
	for p, view := range storeViews(s) {
		if err := twin.RestorePartitionView(p, view, exec.ReadVals[V]); err != nil {
			t.Fatal(err)
		}
	}
	twin.MarkClean()
	return twin
}

func applyReference[V exec.ColValue](t *testing.T, recapture bool, pool []V) {
	const nparts, rounds = 3, 300
	rng := rand.New(rand.NewSource(int64(len(pool))))
	g := gen.Grid(5, 8)
	j := newJob(Kernel[V]{
		Name:   "apply-reference",
		Expand: exec.ExpandCopy,
		Init:   func(idx int32) (V, bool) { return pool[int(idx)%len(pool)], true },
	}, g, nparts, nil)
	pt := j.pt
	var twin *state.DenseStore[V]
	var held *state.DenseStore[V] // the Recapture capture, reused
	for round := 0; round < rounds; round++ {
		if round%3 == 0 {
			// A new delta epoch: sometimes lose a partition and refill part
			// of it, so some slots are absent; then start the twin clean.
			if rng.Intn(2) == 0 {
				p := rng.Intn(nparts)
				j.vals.ClearPartition(p)
				for slot := range pt.Owned[p] {
					if rng.Intn(3) != 0 {
						j.vals.SetSlot(p, int32(slot), pool[rng.Intn(len(pool))])
					}
				}
			}
			j.vals.MarkClean()
			twin = storeTwin(t, j.vals, g, pt)
		}

		// The columns Apply is handed: each destination once, ascending.
		// A partition is handed nothing, only ties, or random candidates.
		dsts := make([][]int32, nparts)
		cands := make([][]V, nparts)
		for p := range dsts {
			mode := rng.Intn(4)
			for _, d := range pt.Owned[p] {
				cur, ok := j.vals.At(d)
				if mode == 0 || (mode == 1 && !ok) || rng.Intn(3) == 0 {
					continue
				}
				c := pool[rng.Intn(len(pool))]
				if ok && (mode == 1 || rng.Intn(3) == 0) {
					c = cur // a tie
				}
				dsts[p], cands[p] = append(dsts[p], d), append(cands[p], c)
			}
		}

		// The per-vertex reference, applied to a map and to the twin.
		ref := map[int32]V{}
		var refLen int
		for i := range pt.PartOf {
			if v, ok := j.vals.At(int32(i)); ok {
				ref[int32(i)] = v
				refLen++
			}
		}
		refNext := make([][]string, nparts)
		for p := range dsts {
			for i, d := range dsts[p] {
				cand := cands[p][i]
				if cur, ok := ref[d]; ok && cur <= cand {
					continue
				}
				if _, ok := ref[d]; !ok {
					refLen++
				}
				ref[d] = cand
				twin.SetSlot(p, pt.Slot[d], cand)
				refNext[p] = append(refNext[p], string(rune(d))+bits(cand))
			}
		}

		before := storeViews(j.vals)
		var capture *state.DenseStore[V]
		if recapture {
			held = j.vals.Recapture(held)
			capture = held
		} else {
			capture = j.vals.SnapshotShared()
		}
		versions := make([]uint64, nparts)
		nextVersions := make([]uint64, nparts)
		run := func() {
			j.next.ClearAll()
			clear(j.updates)
			for p := range versions {
				versions[p], nextVersions[p] = j.vals.Version(p), j.next.Version(p)
			}
			for p := range dsts {
				if err := j.apply(p, dsts[p], cands[p]); err != nil {
					t.Fatal(err)
				}
			}
		}
		run()
		if recapture {
			// The attempt's capture reads as before; Revert puts the store
			// back, and the attempt is then run again to go on.
			if got := storeViews(capture); !slices.EqualFunc(got, before, bytes.Equal) {
				t.Fatalf("round %d: the Recapture capture changed under the apply", round)
			}
			j.vals.Revert(capture)
			if got := storeViews(j.vals); !slices.EqualFunc(got, before, bytes.Equal) {
				t.Fatalf("round %d: Revert did not restore the store", round)
			}
			held = j.vals.Recapture(held)
			capture = held
			run()
		}
		if got := storeViews(capture); !slices.EqualFunc(got, before, bytes.Equal) {
			t.Fatalf("round %d: the capture changed under the apply", round)
		}

		for i := range pt.PartOf {
			got, ok := j.vals.At(int32(i))
			want, wok := ref[int32(i)]
			if ok != wok || (ok && bits(got) != bits(want)) {
				t.Fatalf("round %d: vertex %d is (%v, %v), want (%v, %v)", round, i, got, ok, want, wok)
			}
		}
		if j.vals.Len() != refLen {
			t.Fatalf("round %d: Len %d, want %d", round, j.vals.Len(), refLen)
		}
		for p := 0; p < nparts; p++ {
			idx, val := j.next.Cols(p)
			got := make([]string, len(idx))
			for i, d := range idx {
				got[i] = string(rune(d)) + bits(val[i])
			}
			if !slices.Equal(got, refNext[p]) {
				t.Fatalf("round %d, partition %d: next workset %v %v, want %d entries in ascending order", round, p, idx, val, len(refNext[p]))
			}
			if j.updates[p] != int64(len(refNext[p])) {
				t.Fatalf("round %d, partition %d: %d updates, want %d", round, p, j.updates[p], len(refNext[p]))
			}
			lowered := len(refNext[p]) > 0
			if moved := j.vals.Version(p) != versions[p]; moved != lowered {
				t.Fatalf("round %d, partition %d: version moved %v with %d lowered", round, p, moved, len(refNext[p]))
			}
			if moved := j.next.Version(p) != nextVersions[p]; moved != lowered {
				t.Fatalf("round %d, partition %d: next workset version moved %v with %d lowered", round, p, moved, len(refNext[p]))
			}
			if got, want := j.vals.AppendDeltaBytes(nil, p, exec.AppendVals[V]), twin.AppendDeltaBytes(nil, p, exec.AppendVals[V]); !bytes.Equal(got, want) {
				t.Fatalf("round %d, partition %d: the delta differs from the per-vertex twin's", round, p)
			}
		}
	}
}
