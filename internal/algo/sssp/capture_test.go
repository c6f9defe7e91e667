package sssp

import (
	"bytes"
	"encoding/gob"
	"testing"

	"optiflow/internal/graph/gen"
)

// TestAsyncCaptureInFlightMatchesSyncSnapshot holds SSSP's distance
// column and workset to the copy-on-write capture contract the async
// checkpoint relies on: SnapshotShared captures taken at a barrier and
// encoded on another goroutine while supersteps clear, refill and swap
// the live worksets must encode exactly like a synchronous snapshot of
// that barrier (under -race, any write to a captured array is
// reported), and restoring them must reproduce it.
func TestAsyncCaptureInFlightMatchesSyncSnapshot(t *testing.T) {
	g := gen.Grid(12, 12)
	for _, barrier := range []int{0, 1, 3, 6} {
		c := newColSSSP(g, 0, 4)
		for i := 0; i < barrier; i++ {
			if _, err := c.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		var sync bytes.Buffer
		if err := c.SnapshotTo(&sync); err != nil {
			t.Fatal(err)
		}
		dist, workset := c.dist.SnapshotShared(), c.workset.SnapshotShared()
		encoded := make(chan []byte)
		go func() {
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			if err := dist.EncodeTo(enc); err != nil {
				t.Error(err)
			}
			if err := workset.EncodeTo(enc); err != nil {
				t.Error(err)
			}
			encoded <- buf.Bytes()
		}()
		for i := 0; i < 4; i++ {
			if _, err := c.Step(nil); err != nil {
				t.Fatal(err)
			}
		}
		got := <-encoded
		if !bytes.Equal(got, sync.Bytes()) {
			t.Fatalf("barrier %d: capture encoded differently from the sync snapshot", barrier)
		}

		restored := newColSSSP(g, 0, 4)
		if err := restored.RestoreFrom(got); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := restored.SnapshotTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), sync.Bytes()) {
			t.Fatalf("barrier %d: restored state differs from the sync snapshot", barrier)
		}
	}
}
