package exec

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"optiflow/internal/dataflow"
)

// Property: the engine's hash join equals a nested-loop reference join
// for arbitrary multisets of keys and any parallelism.
func TestJoinMatchesNestedLoopProperty(t *testing.T) {
	f := func(leftRaw, rightRaw []uint8, pRaw uint8) bool {
		p := int(pRaw%6) + 1
		// Bound sizes to keep the nested loop cheap.
		if len(leftRaw) > 60 {
			leftRaw = leftRaw[:60]
		}
		if len(rightRaw) > 60 {
			rightRaw = rightRaw[:60]
		}
		left := make([]uint64, len(leftRaw))
		for i, v := range leftRaw {
			left[i] = uint64(v % 16)
		}
		right := make([]uint64, len(rightRaw))
		for i, v := range rightRaw {
			right[i] = uint64(v % 16)
		}

		// Reference: nested loop, pair sums of matches.
		var want []uint64
		for _, l := range left {
			for _, r := range right {
				if l == r {
					want = append(want, l*1000+r)
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		// Engine.
		var mu sync.Mutex
		var got []uint64
		plan := dataflow.NewPlan("join-prop")
		ls := plan.Source("left", func(part, nparts int, emit dataflow.Emit) error {
			for i := part; i < len(left); i += nparts {
				emit(left[i])
			}
			return nil
		})
		rs := plan.Source("right", func(part, nparts int, emit dataflow.Emit) error {
			for i := part; i < len(right); i += nparts {
				emit(right[i])
			}
			return nil
		})
		ls.Join("j", rs, identKey, identKey, dataflow.JoinInner,
			func(l, r any, emit dataflow.Emit) { emit(l.(uint64)*1000 + r.(uint64)) }).
			Sink("out", func(_ int, rec any) error {
				mu.Lock()
				got = append(got, rec.(uint64))
				mu.Unlock()
				return nil
			})
		if _, err := (&Engine{Parallelism: p, BatchSize: 2}).Run(plan); err != nil {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
