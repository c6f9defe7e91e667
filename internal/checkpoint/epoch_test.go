package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"

	"optiflow/internal/colbytes"
)

// gobRecord encodes rec as the gob codec the commit record used before
// its raw form.
func gobRecord(t testing.TB, rec CommitRecord) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(rec); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestLoadCommittedIgnoresUncommittedEpoch(t *testing.T) {
	s := NewMemoryStore()
	// Partition blobs land but the commit marker never does (crash
	// mid-write): the epoch must stay invisible.
	for p := 0; p < 3; p++ {
		if err := SaveEpochPartition(s, "job", 1, 0, p, []byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok, err := LoadCommitted(s, "job"); err != nil || ok {
		t.Fatalf("uncommitted epoch visible: ok=%v err=%v", ok, err)
	}
}

func TestCommitThenLoadRoundTrip(t *testing.T) {
	s := NewMemoryStore()
	want := map[int][]byte{0: []byte("p0"), 1: []byte("p1")}
	rec := CommitRecord{Epoch: 1, Superstep: 4, Parts: map[int]uint64{0: 1, 1: 1}}
	for p, data := range want {
		if err := SaveEpochPartition(s, "job", 1, 4, p, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := Commit(s, "job", rec); err != nil {
		t.Fatal(err)
	}
	got, blobs, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.Epoch != 1 || got.Superstep != 4 {
		t.Fatalf("record = %+v", got)
	}
	for p, data := range want {
		if !bytes.Equal(blobs[p], data) {
			t.Fatalf("partition %d = %q", p, blobs[p])
		}
	}
}

// TestCommitRecordCodec pins the commit record's one encoding: a
// record round-trips exactly, the initial state's superstep -1 and an
// empty Parts included, and a record that is not one — a gob stream,
// partitions duplicated or out of order, columns of unequal length, a
// truncated body, trailing bytes — is a *RecordError.
func TestCommitRecordCodec(t *testing.T) {
	for _, rec := range []CommitRecord{
		{Epoch: 9, Superstep: 4, Parts: map[int]uint64{2: 9, 0: 3, 7: 8}},
		{Epoch: 1, Superstep: -1},
	} {
		got, err := decodeRecord(appendRecord(nil, rec))
		if err != nil || fmt.Sprint(got) != fmt.Sprint(rec) {
			t.Errorf("%+v decoded as %+v, %v", rec, got, err)
		}
	}
	good := appendRecord(nil, CommitRecord{Epoch: 2, Superstep: 1, Parts: map[int]uint64{0: 1, 1: 2}})
	head := good[:1+8+8]
	cols := func(parts []uint32, epochs []uint64) []byte {
		return colbytes.AppendU64s(colbytes.AppendU32s(bytes.Clone(head), parts), epochs)
	}
	for what, b := range map[string][]byte{
		"gob stream":             gobRecord(t, CommitRecord{Epoch: 2, Superstep: 1, Parts: map[int]uint64{0: 1, 1: 2}}),
		"empty":                  nil,
		"duplicate partition":    cols([]uint32{1, 1}, []uint64{1, 2}),
		"unordered partitions":   cols([]uint32{1, 0}, []uint64{1, 2}),
		"more epochs than parts": cols([]uint32{0}, []uint64{1, 2}),
		"more parts than epochs": cols([]uint32{0, 1}, []uint64{1}),
		"truncated":              good[:len(good)-1],
		"trailing byte":          append(bytes.Clone(good), 0),
	} {
		var re *RecordError
		if _, err := decodeRecord(b); !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want *RecordError", what, err)
		}
	}
}

func TestLoadCommittedRejectsMissingBlob(t *testing.T) {
	s := NewMemoryStore()
	if err := SaveEpochPartition(s, "job", 1, 0, 0, []byte("p0")); err != nil {
		t.Fatal(err)
	}
	// The record references partition 1, which was never written. A
	// partial result must never come back.
	rec := CommitRecord{Epoch: 1, Superstep: 0, Parts: map[int]uint64{0: 1, 1: 1}}
	if err := Commit(s, "job", rec); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCommitted(s, "job"); err == nil {
		t.Fatal("commit referencing a missing blob should not load")
	}
}

func TestCommitStitchesOlderEpochs(t *testing.T) {
	s := NewMemoryStore()
	// Epoch 1: full snapshot of both partitions.
	for p := 0; p < 2; p++ {
		if err := SaveEpochPartition(s, "job", 1, 0, p, []byte(fmt.Sprintf("e1p%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := Commit(s, "job", CommitRecord{Epoch: 1, Superstep: 0, Parts: map[int]uint64{0: 1, 1: 1}}); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: only partition 1 changed; partition 0 still points at
	// epoch 1's blob.
	if err := SaveEpochPartition(s, "job", 2, 1, 1, []byte("e2p1")); err != nil {
		t.Fatal(err)
	}
	if err := Commit(s, "job", CommitRecord{Epoch: 2, Superstep: 1, Parts: map[int]uint64{0: 1, 1: 2}}); err != nil {
		t.Fatal(err)
	}
	rec, blobs, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if rec.Superstep != 1 || string(blobs[0]) != "e1p0" || string(blobs[1]) != "e2p1" {
		t.Fatalf("stitched load = %+v %q %q", rec, blobs[0], blobs[1])
	}
}

func TestDiscardEpochParts(t *testing.T) {
	s := NewMemoryStore()
	if err := SaveEpochPartition(s, "job", 1, 0, 0, []byte("p0")); err != nil {
		t.Fatal(err)
	}
	DiscardEpochParts(s, "job", 1, []int{0})
	if _, _, ok, _ := s.Load(epochPartKey("job", 1, 0)); ok {
		t.Fatal("discarded blob still present")
	}
	// Stores without Delete are tolerated (best-effort GC).
	DiscardEpochParts(nopStore{}, "job", 1, []int{0})
}

type nopStore struct{}

func (nopStore) Save(string, int, []byte) error         { return nil }
func (nopStore) Load(string) ([]byte, int, bool, error) { return nil, 0, false, nil }
func (nopStore) BytesWritten() int64                    { return 0 }
func (nopStore) Saves() int                             { return 0 }

// sliceSnap is a PartitionSnapshot over fixed per-partition payloads.
type sliceSnap [][]byte

func (s sliceSnap) NumPartitions() int { return len(s) }

func (s sliceSnap) SnapshotPartition(p int, buf *bytes.Buffer) error {
	if s[p] == nil {
		return errors.New("boom")
	}
	_, err := buf.Write(s[p])
	return err
}

func TestEncodePartitionsParallel(t *testing.T) {
	snap := sliceSnap{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}
	var mu sync.Mutex
	got := map[int]string{}
	err := EncodePartitions(snap, []int{0, 1, 2, 3}, 4, func(p int, data []byte) error {
		mu.Lock()
		got[p] = string(data)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range []string{"a", "bb", "ccc", "dddd"} {
		if got[p] != want {
			t.Fatalf("partition %d = %q", p, got[p])
		}
	}
}

func TestEncodePartitionsPropagatesError(t *testing.T) {
	snap := sliceSnap{[]byte("a"), nil, []byte("c")}
	err := EncodePartitions(snap, []int{0, 1, 2}, 2, func(int, []byte) error { return nil })
	if err == nil {
		t.Fatal("encode error swallowed")
	}
}

// Regression test for a cancellation (deepvet) finding: the work queue
// used to be unbuffered, so the enqueue loop depended on worker
// liveness to complete. It is now buffered to the full work list —
// a failing partition must neither reach save nor stop the remaining
// partitions from draining, even with a single worker.
func TestEncodePartitionsDrainsPastFailures(t *testing.T) {
	snap := sliceSnap{[]byte("a"), nil, []byte("c"), []byte("d")}
	var mu sync.Mutex
	saved := map[int]bool{}
	err := EncodePartitions(snap, []int{0, 1, 2, 3}, 1, func(p int, _ []byte) error {
		mu.Lock()
		saved[p] = true
		mu.Unlock()
		return nil
	})
	if err == nil {
		t.Fatal("encode error swallowed")
	}
	if saved[1] {
		t.Fatal("save called for the partition whose encoding failed")
	}
	for _, p := range []int{0, 2, 3} {
		if !saved[p] {
			t.Fatalf("partition %d not drained after the failure", p)
		}
	}
}

func TestRestorePartitionsDrainsPastFailures(t *testing.T) {
	blobs := map[int][]byte{0: []byte("a"), 1: []byte("b"), 2: []byte("c")}
	var mu sync.Mutex
	restored := map[int]bool{}
	err := RestorePartitions(blobs, 1, func(p int, _ []byte) error {
		if p == 1 {
			return errors.New("boom")
		}
		mu.Lock()
		restored[p] = true
		mu.Unlock()
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("restore error = %v, want boom", err)
	}
	if !restored[0] || !restored[2] {
		t.Fatalf("healthy partitions not restored after the failure: %v", restored)
	}
}

func TestAsyncWriterCommitsInBackground(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(s, "job", AsyncOptions{Parallelism: 2})
	if err := w.Submit(0, sliceSnap{[]byte("s0p0"), []byte("s0p1")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(1, sliceSnap{[]byte("s1p0"), []byte("s1p1")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	rec, ok := w.LastCommitted()
	if !ok || rec.Superstep != 1 {
		t.Fatalf("last committed = %+v ok=%v", rec, ok)
	}
	got, blobs, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok || got.Superstep != 1 {
		t.Fatalf("load: %+v ok=%v err=%v", got, ok, err)
	}
	if string(blobs[0]) != "s1p0" || string(blobs[1]) != "s1p1" {
		t.Fatalf("blobs = %q %q", blobs[0], blobs[1])
	}
	if st := w.Stats(); st.Commits != 2 || st.Discarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAsyncWriterCompressedRoundTrip(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(Compressed(s), "job", AsyncOptions{Parallelism: 2})
	payload := bytes.Repeat([]byte("optiflow "), 500)
	if err := w.Submit(0, sliceSnap{payload, payload}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	_, blobs, ok, err := LoadCommitted(Compressed(s), "job")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(blobs[0], payload) || !bytes.Equal(blobs[1], payload) {
		t.Fatal("compressed round trip mismatch")
	}
	if s.BytesWritten() > int64(2*len(payload)) {
		t.Fatalf("stored %d bytes for %d raw — compression ineffective", s.BytesWritten(), 2*len(payload))
	}
}

func TestAsyncWriterIncrementalSubmissions(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(s, "job", AsyncOptions{})
	if err := w.Submit(0, sliceSnap{[]byte("s0p0"), []byte("s0p1")}, nil); err != nil {
		t.Fatal(err)
	}
	// Only partition 1 changed since.
	if err := w.Submit(1, sliceSnap{[]byte("XXX"), []byte("s1p1")}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	_, blobs, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if string(blobs[0]) != "s0p0" || string(blobs[1]) != "s1p1" {
		t.Fatalf("stitched blobs = %q %q", blobs[0], blobs[1])
	}
}

func TestAsyncWriterGCsSupersededBlobs(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(s, "job", AsyncOptions{})
	if err := w.Submit(0, sliceSnap{[]byte("a")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(1, sliceSnap{[]byte("b")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Load(epochPartKey("job", 1, 0)); ok {
		t.Fatal("superseded epoch-1 blob not collected")
	}
	if _, _, ok, _ := s.Load(epochPartKey("job", 2, 0)); !ok {
		t.Fatal("live epoch-2 blob collected")
	}
}

func TestAsyncWriterErrorIsSticky(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(s, "job", AsyncOptions{})
	if err := w.Submit(0, sliceSnap{nil}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err == nil {
		t.Fatal("encode failure not reported by Drain")
	}
	if err := w.Submit(1, sliceSnap{[]byte("ok")}, nil); err == nil {
		t.Fatal("Submit after failure should report the sticky error")
	}
	if _, _, ok, _ := LoadCommitted(s, "job"); ok {
		t.Fatal("failed epoch committed")
	}
}

func TestAsyncWriterCancelPendingKeepsRestoreTarget(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(s, "job", AsyncOptions{QueueDepth: 8})
	// Stall the drainer on a slow first submission so later ones queue.
	release := make(chan struct{})
	slow := gateSnap{data: []byte("s0"), gate: release}
	if err := w.Submit(0, slow, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(1, sliceSnap{[]byte("s1")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(2, sliceSnap{[]byte("s2")}, nil); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 is mid-write: the two queued epochs can be dropped — the
	// in-flight one will commit and serve as the restore target.
	if dropped := w.CancelPending(); dropped != 2 {
		t.Fatalf("dropped = %d", dropped)
	}
	close(release)
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	rec, _, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok || rec.Superstep != 0 {
		t.Fatalf("restore target = %+v ok=%v err=%v", rec, ok, err)
	}
	if st := w.Stats(); st.Commits != 1 || st.Discarded != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAsyncWriterCancelKeepsOldestWhenNothingCommitted(t *testing.T) {
	s := NewMemoryStore()
	w := NewAsyncWriter(s, "job", AsyncOptions{QueueDepth: 8})
	w.mu.Lock()
	// Simulate submissions queued before the drainer picked anything up
	// (nothing committed, nothing being written).
	w.queue = []*pendingEpoch{
		{epoch: 1, superstep: 0, snap: sliceSnap{[]byte("s0")}},
		{epoch: 2, superstep: 1, snap: sliceSnap{[]byte("s1")}},
	}
	w.inflight = 2
	w.epoch = 2
	w.mu.Unlock()
	if dropped := w.CancelPending(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	go w.drain()
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	rec, _, ok, err := LoadCommitted(s, "job")
	if err != nil || !ok || rec.Superstep != 0 {
		t.Fatalf("oldest submission not kept: %+v ok=%v err=%v", rec, ok, err)
	}
}

// gateSnap blocks the first encode until gate closes, keeping an epoch
// "mid-write" for as long as the test needs.
type gateSnap struct {
	data []byte
	gate chan struct{}
}

func (g gateSnap) NumPartitions() int { return 1 }

func (g gateSnap) SnapshotPartition(p int, buf *bytes.Buffer) error {
	<-g.gate
	_, err := buf.Write(g.data)
	return err
}
