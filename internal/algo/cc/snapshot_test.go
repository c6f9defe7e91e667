package cc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"strings"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/state"
)

// forgedSnapshot writes a full CC snapshot of g at superstep zero in
// the job's own layout, except that partition 0's workset also names
// vertex idx.
func forgedSnapshot(g *graph.Graph, nparts int, idx int32) []byte {
	d := g.Dense()
	pt := d.Partitioning(nparts)
	vals := state.NewDenseStore[uint64]("labels", d, pt)
	ws := state.NewColWorkset[uint64]("workset", nparts)
	for i, id := range d.IDs() {
		vals.SetAt(int32(i), uint64(id))
	}
	ws.Add(0, idx, 0)
	b := colbytes.AppendU32([]byte{state.ViewTag}, uint32(nparts))
	for p := 0; p < nparts; p++ {
		b = vals.AppendPartitionBytes(b, p, exec.AppendVals[uint64])
		b = ws.AppendPartitionBytes(b, p, exec.AppendVals[uint64])
	}
	return b
}

// TestRestoreRejectsForeignWorksetIndex is the regression for a
// checkpoint whose workset names a vertex the partition does not own:
// the gob codec installed such indices unchecked, and the next Step
// panicked in the expansion ("index out of range [1048576] with length
// 65" on an 8×8 grid). The restore itself must fail, and the job must
// still step.
func TestRestoreRejectsForeignWorksetIndex(t *testing.T) {
	const nparts = 4
	g := gen.Grid(8, 8)
	pt := g.Dense().Partitioning(nparts)
	other := pt.Owned[1][0]
	for name, idx := range map[string]int32{"out of range": 1 << 20, "negative": -1, "other partition": other} {
		t.Run(name, func(t *testing.T) {
			j := NewColumnar(g, nparts)
			err := j.RestoreFrom(forgedSnapshot(g, nparts, idx))
			if err == nil || !strings.Contains(err.Error(), "not in the partition") {
				t.Fatalf("RestoreFrom: err = %v, want an ownership error", err)
			}
			if _, err := j.Step(nil); err != nil {
				t.Fatalf("step after the rejected restore: %v", err)
			}
		})
	}
}

// TestRestoreRejectsGobBlob writes a snapshot the way the gob codec
// did — store name, sorted pairs per partition, workset name, columns
// per partition — and checks that every restore path refuses it on the
// format byte, so an old on-disk checkpoint is never misparsed.
func TestRestoreRejectsGobBlob(t *testing.T) {
	const nparts = 4
	g := gen.Grid(8, 8)
	j := NewColumnar(g, nparts)
	type pairs struct{ Keys, Vals []uint64 }
	type cols struct {
		Idx []int32
		Val []uint64
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	parts := make([]pairs, nparts)
	wparts := make([]cols, nparts)
	d := g.Dense()
	j.Range(func(v graph.VertexID, l uint64) bool {
		idx, _ := d.IndexOf(v)
		p := d.Partitioning(nparts).PartOf[idx]
		parts[p].Keys = append(parts[p].Keys, uint64(v))
		parts[p].Vals = append(parts[p].Vals, l)
		return true
	})
	for _, m := range []any{"labels", parts, "workset", wparts} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	blob := buf.Bytes()
	var part bytes.Buffer
	enc = gob.NewEncoder(&part)
	if err := enc.Encode(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(wparts[0]); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if err := j.SnapshotTo(&base); err != nil {
		t.Fatal(err)
	}
	for name, restore := range map[string]func() error{
		"RestoreFrom":      func() error { return j.RestoreFrom(blob) },
		"RestorePartition": func() error { return j.RestorePartition(0, part.Bytes()) },
		"RestoreFromChain": func() error { return j.RestoreFromChain(base.Bytes(), [][]byte{blob}) },
	} {
		if err := restore(); err == nil || !strings.Contains(err.Error(), "not a partition byte view") {
			t.Errorf("%s: err = %v, want a format error", name, err)
		}
	}
}

// TestSnapshotBytesReproducible runs CC 30 times per seed and demands
// byte-identical SnapshotTo blobs at superstep 0, mid-run and at
// convergence: a snapshot is a function of the seed.
func TestSnapshotBytesReproducible(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := gen.Twitter(400, seed)
		var want [][]byte
		for run := 0; run < 30; run++ {
			got := snapshotsAlongRun(t, NewColumnar(g, 4))
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

// snapshotsAlongRun steps j to convergence and returns its SnapshotTo
// blobs at superstep 0, after two supersteps and at the end.
func snapshotsAlongRun(t *testing.T, j *CC) [][]byte {
	t.Helper()
	var out [][]byte
	take := func() {
		var buf bytes.Buffer
		if err := j.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	take()
	for step := 1; j.WorksetLen() > 0; step++ {
		if _, err := j.Step(nil); err != nil {
			t.Fatal(err)
		}
		if step == 2 {
			take()
		}
	}
	take()
	return out
}

// FuzzRestoreSnapshot feeds arbitrary bytes to every restore path of
// the CC job: RestoreFrom (kind 0), RestorePartition (kind 1, partition
// part) and RestoreFromChain over a real base (kind 2). A restore must
// fail with an error or succeed, allocate within a bound set by the
// input's size, and leave a job that steps without failing.
func FuzzRestoreSnapshot(f *testing.F) {
	const nparts = 4
	g := gen.Grid(8, 8)
	j := NewColumnar(g, nparts)
	var base bytes.Buffer
	if err := j.SnapshotTo(&base); err != nil {
		f.Fatal(err)
	}
	add := func() {
		var full, delta bytes.Buffer
		if err := j.SnapshotTo(&full); err != nil {
			f.Fatal(err)
		}
		if err := j.SnapshotDelta(&delta); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), uint8(0), full.Bytes())
		f.Add(uint8(2), uint8(0), delta.Bytes())
		for p := 0; p < nparts; p++ {
			var part bytes.Buffer
			if err := j.SnapshotPartition(p, &part); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(1), uint8(p), part.Bytes())
		}
	}
	add() // superstep 0
	for step := 1; j.WorksetLen() > 0; step++ {
		if _, err := j.Step(nil); err != nil {
			f.Fatal(err)
		}
		if step == 3 {
			add() // mid-run
		}
	}
	add() // converged
	f.Add(uint8(0), uint8(0), forgedSnapshot(g, nparts, 1<<20))

	f.Fuzz(func(t *testing.T, kind, part uint8, data []byte) {
		j := NewColumnar(g, nparts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		switch kind % 3 {
		case 0:
			err = j.RestoreFrom(data)
		case 1:
			err = j.RestorePartition(int(part)%nparts, data)
		default:
			err = j.RestoreFromChain(base.Bytes(), [][]byte{data})
		}
		runtime.ReadMemStats(&after)
		// The job's own state is a few kB; a count the input cannot back
		// must fail before it allocates.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+16*uint64(len(data)) {
			t.Fatalf("restore of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		if _, err := j.Step(nil); err != nil {
			t.Fatalf("step after a successful restore: %v", err)
		}
	})
}

// TestMidStepAbortLeavesSnapshotUnchanged strikes a mid-step fault in
// every superstep of a CC run, delta and bulk — after no message, after
// half the superstep's messages and after all but one — and demands
// that each aborted attempt leaves the SnapshotTo bytes as they were:
// the fault strikes during the expansion, before any Apply lowers a
// label, so an aborted attempt has nothing to reconcile. A threshold of
// all the superstep's messages is never crossed: that attempt completes
// and must equal a twin job stepping without faults.
func TestMidStepAbortLeavesSnapshotUnchanged(t *testing.T) {
	g := gen.Twitter(400, 1)
	snapshot := func(j *CC) []byte {
		var buf bytes.Buffer
		if err := j.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	faultAfter := func(n int64) *iterate.Context {
		return &iterate.Context{Fault: &exec.FaultInjection{Workers: []int{1}, Partitions: []int{1}, AfterRecords: n}}
	}
	for name, newJob := range map[string]func(*graph.Graph, int) *CC{"delta": NewColumnar, "bulk": NewBulk} {
		t.Run(name, func(t *testing.T) {
			j, twin := newJob(g, 4), newJob(g, 4)
			for step := 1; twin.WorksetLen() > 0; step++ {
				stats, err := twin.Step(nil)
				if err != nil {
					t.Fatal(err)
				}
				m, before := stats.Messages, snapshot(j)
				for _, after := range []int64{0, m / 2, m - 1} {
					if after < 0 {
						continue
					}
					var wf *exec.WorkerFailure
					if _, err := j.Step(faultAfter(after)); !errors.As(err, &wf) {
						t.Fatalf("superstep %d, fault after %d of %d messages: err = %v, want a worker failure", step, after, m, err)
					}
					if !bytes.Equal(snapshot(j), before) {
						t.Fatalf("superstep %d, fault after %d of %d messages: the aborted attempt changed the snapshot", step, after, m)
					}
				}
				if _, err := j.Step(faultAfter(m)); err != nil {
					t.Fatalf("superstep %d: a fault after all %d messages struck: %v", step, m, err)
				}
				if !bytes.Equal(snapshot(j), snapshot(twin)) {
					t.Fatalf("superstep %d: snapshot differs from the twin's", step)
				}
			}
		})
	}
}
