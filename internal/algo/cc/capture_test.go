package cc

import (
	"bytes"
	"testing"

	"optiflow/internal/graph/gen"
)

// TestAsyncCaptureInFlightMatchesSyncSnapshot takes the async
// checkpoint's per-partition capture at a superstep barrier and encodes
// it on another goroutine while the live job keeps stepping — clearing,
// refilling and swapping the worksets the capture aliases. Under -race
// any write to a captured array is reported; without it the bytes must
// still equal a synchronous snapshot taken at the same barrier, and
// restoring them must reproduce that snapshot exactly.
func TestAsyncCaptureInFlightMatchesSyncSnapshot(t *testing.T) {
	const nparts = 4
	g := gen.Grid(12, 12)
	for _, barrier := range []int{0, 1, 3, 6} {
		j := NewColumnar(g, nparts)
		for i := 0; i < barrier; i++ {
			if _, err := j.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		sync := make([][]byte, nparts)
		for p := range sync {
			var buf bytes.Buffer
			if err := j.SnapshotPartition(p, &buf); err != nil {
				t.Fatal(err)
			}
			sync[p] = buf.Bytes()
		}
		capture := j.CaptureSnapshot()
		encoded := make(chan [][]byte)
		go func() {
			out := make([][]byte, nparts)
			for p := range out {
				var buf bytes.Buffer
				if err := capture.SnapshotPartition(p, &buf); err != nil {
					t.Error(err)
				}
				out[p] = buf.Bytes()
			}
			encoded <- out
		}()
		for i := 0; i < 4; i++ {
			if _, err := j.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		got := <-encoded

		restored := NewColumnar(g, nparts)
		for p := range got {
			if !bytes.Equal(got[p], sync[p]) {
				t.Fatalf("barrier %d, partition %d: capture encoded differently from the sync snapshot", barrier, p)
			}
			if err := restored.RestorePartition(p, got[p]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := restored.SnapshotPartition(p, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), sync[p]) {
				t.Fatalf("barrier %d, partition %d: restored state differs from the sync snapshot", barrier, p)
			}
		}
	}
}
