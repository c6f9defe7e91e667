package pagerank

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"

	"optiflow/internal/exec"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
)

// gobSnapshot writes a snapshot of pr the way the gob codec did: the
// convergence marker, the store name, then sorted pairs per partition.
func gobSnapshot(t testing.TB, pr *PR) []byte {
	t.Helper()
	type pairs struct {
		Keys []uint64
		Vals []float64
	}
	parts := make([]pairs, pr.pt.N)
	for p := range parts {
		pr.ranks.RangePartition(p, func(k uint64, v float64) bool {
			parts[p].Keys = append(parts[p].Keys, k)
			parts[p].Vals = append(parts[p].Vals, v)
			return true
		})
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range []any{pr.lastL1, "ranks", parts} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRestoreRejectsGobBlob checks that a snapshot in the gob form
// fails the format byte instead of being misparsed.
func TestRestoreRejectsGobBlob(t *testing.T) {
	pr := NewColumnar(gen.Twitter(200, 1), 4, 0.85, nil)
	blob := gobSnapshot(t, pr)
	for name, err := range map[string]error{
		"RestoreFrom":      pr.RestoreFrom(blob),
		"RestorePartition": pr.RestorePartition(0, blob),
	} {
		if err == nil || !strings.Contains(err.Error(), "not a partition byte view") {
			t.Errorf("%s: err = %v, want a format error", name, err)
		}
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to PageRank's restore
// paths: RestoreFrom (even kind) and RestorePartition (odd kind, of
// partition part). A restore must fail with an error or succeed,
// allocate within a bound set by the input's size, and leave a job
// that steps without failing.
func FuzzRestoreSnapshot(f *testing.F) {
	const nparts = 4
	g := gen.Twitter(200, 1)
	pr := NewColumnar(g, nparts, 0.85, nil)
	add := func() {
		var full bytes.Buffer
		if err := pr.SnapshotTo(&full); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), uint8(0), full.Bytes())
		for p := 0; p < nparts; p++ {
			var part bytes.Buffer
			if err := pr.SnapshotPartition(p, &part); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(1), uint8(p), part.Bytes())
		}
	}
	add() // superstep 0
	for step := 1; pr.LastL1() >= 1e-9; step++ {
		if _, err := pr.Step(nil); err != nil {
			f.Fatal(err)
		}
		if step == 3 {
			add() // mid-run
		}
	}
	add() // converged
	f.Add(uint8(0), uint8(0), gobSnapshot(f, pr))

	f.Fuzz(func(t *testing.T, kind, part uint8, data []byte) {
		pr := NewColumnar(g, nparts, 0.85, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if kind%2 == 0 {
			err = pr.RestoreFrom(data)
		} else {
			err = pr.RestorePartition(int(part)%nparts, data)
		}
		runtime.ReadMemStats(&after)
		// The rank vector is a few kB; a count the input cannot back
		// must fail before it allocates.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+16*uint64(len(data)) {
			t.Fatalf("restore of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		// A restored rank may be any float, NaN included: the step only
		// has to complete.
		if _, err := pr.Step(nil); err != nil {
			t.Fatalf("step after a successful restore: %v", err)
		}
	})
}

// TestSnapshotBytesReproducible runs PageRank 30 times per seed and
// demands byte-identical SnapshotTo blobs at superstep 0, after two
// supersteps and at convergence: the engine folds contributions in
// ascending source order, so even the float sums are a function of the
// seed.
func TestSnapshotBytesReproducible(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := gen.Twitter(400, seed)
		var want [][]byte
		for run := 0; run < 30; run++ {
			got := snapshotsAlongRun(t, NewColumnar(g, 4, 0.85, nil))
			if run == 0 {
				want = got
				continue
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d, run %d: snapshot %d differs from run 0", seed, run, i)
				}
			}
		}
	}
}

// snapshotsAlongRun steps pr until its L1 delta falls below 1e-9 and
// returns its SnapshotTo blobs at superstep 0, after two supersteps and
// at the end.
func snapshotsAlongRun(t *testing.T, pr *PR) [][]byte {
	t.Helper()
	out := [][]byte{snapshotOf(t, pr)}
	for step := 1; pr.LastL1() >= 1e-9; step++ {
		if _, err := pr.Step(nil); err != nil {
			t.Fatal(err)
		}
		if step == 2 {
			out = append(out, snapshotOf(t, pr))
		}
	}
	return append(out, snapshotOf(t, pr))
}

func snapshotOf(t *testing.T, pr *PR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMidStepAbortLeavesSnapshotUnchanged strikes a mid-step fault in
// every superstep of a PageRank run — after no message, after half the
// superstep's messages and after all but one — and demands that each
// aborted attempt leaves the SnapshotTo bytes as they were. A threshold
// of all the superstep's messages is never crossed: that attempt
// completes and must equal a twin job stepping without faults.
func TestMidStepAbortLeavesSnapshotUnchanged(t *testing.T) {
	g := gen.Twitter(400, 1)
	pr, twin := NewColumnar(g, 4, 0.85, nil), NewColumnar(g, 4, 0.85, nil)
	faultAfter := func(n int64) *iterate.Context {
		return &iterate.Context{Fault: &exec.FaultInjection{Workers: []int{1}, Partitions: []int{1}, AfterRecords: n}}
	}
	for step := 1; twin.LastL1() >= 1e-9; step++ {
		stats, err := twin.Step(nil)
		if err != nil {
			t.Fatal(err)
		}
		m, before := stats.Messages, snapshotOf(t, pr)
		for _, after := range []int64{0, m / 2, m - 1} {
			var wf *exec.WorkerFailure
			if _, err := pr.Step(faultAfter(after)); !errors.As(err, &wf) {
				t.Fatalf("superstep %d, fault after %d of %d messages: err = %v, want a worker failure", step, after, m, err)
			}
			if !bytes.Equal(snapshotOf(t, pr), before) {
				t.Fatalf("superstep %d, fault after %d of %d messages: the aborted attempt changed the snapshot", step, after, m)
			}
		}
		if _, err := pr.Step(faultAfter(m)); err != nil {
			t.Fatalf("superstep %d: a fault after all %d messages struck: %v", step, m, err)
		}
		if !bytes.Equal(snapshotOf(t, pr), snapshotOf(t, twin)) {
			t.Fatalf("superstep %d: snapshot differs from the twin's", step)
		}
	}
}
