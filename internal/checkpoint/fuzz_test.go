package checkpoint

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzDecodeSnapFile feeds arbitrary bytes to the DiskStore file
// decoder. A file it accepts must be exactly the header it would write
// for that payload and superstep, followed by the payload.
func FuzzDecodeSnapFile(f *testing.F) {
	packed, err := compress(bytes.Repeat([]byte("state"), 40))
	if err != nil {
		f.Fatal(err)
	}
	for i, data := range [][]byte{nil, []byte("p0"), packed} {
		raw := append(encodeSnapHeader(i-1, data), data...)
		f.Add(raw)
		f.Add(raw[:len(raw)-1]) // torn payload
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		data, superstep, err := decodeSnapFile(raw)
		if err != nil {
			return
		}
		if again := append(encodeSnapHeader(superstep, data), data...); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %x, which re-encodes as %x", raw, again)
		}
	})
}

// recordAllocBound is the most decoding an n-byte hostile commit record
// may allocate: 64 KiB, plus 16 bytes per input byte.
func recordAllocBound(n int) uint64 { return 64<<10 + 16*uint64(n) }

// allocBytes returns the bytes f allocates, read from TotalAlloc around
// the call. TotalAlloc also counts what other goroutines allocate
// meanwhile, so a reading over limit is retried, up to three calls, and
// the least one counts. A retry first runs two GC cycles, which empty
// every sync.Pool, so memory the first call left pooled is allocated,
// and counted, again.
func allocBytes(limit uint64, f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3 && least > limit; i++ {
		if i > 0 {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzLoadCommitted feeds an arbitrary commit record and partition blob
// to LoadCommitted. It must return an error or a result, and a result
// holds one blob per partition the record names. A record that does not
// decode is a *RecordError, and reading the record allocates no more
// than recordAllocBound of it. The seeds include a delta chain's record
// (a base and two deltas, each at its own epoch) and the gob form
// records had before the raw one, which must be refused.
func FuzzLoadCommitted(f *testing.F) {
	const job = "job"
	for _, c := range []struct {
		rec  CommitRecord
		blob []byte
	}{
		{CommitRecord{Epoch: 1, Superstep: 4, Parts: map[int]uint64{0: 1}}, []byte("p0")},
		{CommitRecord{Epoch: 2, Superstep: -1, Parts: map[int]uint64{0: 1, 1: 2}}, nil},
		{CommitRecord{Epoch: 3, Superstep: 6, Parts: map[int]uint64{0: 1, 1: 2, 2: 3}}, []byte("base")},
		{CommitRecord{Epoch: 1, Superstep: 0}, []byte("p0")},
	} {
		s := NewMemoryStore()
		if err := Commit(s, job, c.rec); err != nil {
			f.Fatal(err)
		}
		rec, _, _, err := s.Load(commitKey(job))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec, c.blob)
	}
	f.Add(gobRecord(f, CommitRecord{Epoch: 1, Superstep: 4, Parts: map[int]uint64{0: 1}}), []byte("p0"))
	f.Fuzz(func(t *testing.T, rec, blob []byte) {
		s := NewMemoryStore()
		if err := s.Save(commitKey(job), 0, rec); err != nil {
			t.Fatal(err)
		}
		if err := SaveEpochPartition(s, job, 1, 0, 0, blob); err != nil {
			t.Fatal(err)
		}
		var err error
		limit := recordAllocBound(len(rec))
		if grew := allocBytes(limit, func() { _, _, err = LoadCommitRecord(s, job) }); grew > limit {
			t.Fatalf("a %d-byte record allocated %d bytes to decode, want <= %d", len(rec), grew, limit)
		}
		var re *RecordError
		if err != nil && !errors.As(err, &re) {
			t.Fatalf("untyped record error: %v", err)
		}
		got, blobs, ok, err := LoadCommitted(s, job)
		if err != nil || !ok {
			return
		}
		for part := range got.Parts {
			if _, ok := blobs[part]; !ok {
				t.Fatalf("record %+v loaded without partition %d", got, part)
			}
		}
	})
}
