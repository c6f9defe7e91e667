package state

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// byteViewStore builds a small dense store over a 12-vertex graph
// split across 3 partitions, with a sparse fill (every third vertex).
func byteViewStore(t testing.TB) *DenseStore[uint64] {
	t.Helper()
	b := graph.NewBuilder(true)
	for v := 0; v < 12; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	d := b.Build().Dense()
	pt := d.Partitioning(3)
	s := NewDenseStore[uint64]("labels", d, pt)
	for v := uint64(0); v < 12; v += 3 {
		s.Put(v, v*10)
	}
	return s
}

// byteViewWorkset fills a workset over the store's partitioning with
// every even vertex.
func byteViewWorkset(s *DenseStore[uint64]) *ColWorkset[uint64] {
	w := NewColWorkset[uint64]("workset", s.NumPartitions())
	for idx := int32(0); idx < int32(len(s.pt.PartOf)); idx += 2 {
		w.Add(int(s.pt.PartOf[idx]), idx, uint64(idx)+7)
	}
	return w
}

// byteViewDelta returns a clean base store and a copy changed since:
// partition 0 has two dirty slots, partition 1 none, and partition 2
// was cleared and refilled.
func byteViewDelta(t testing.TB) (base, cur *DenseStore[uint64]) {
	t.Helper()
	base = byteViewStore(t)
	base.MarkClean()
	cur = base.Snapshot()
	last := int32(len(cur.pt.Owned[0]) - 1)
	cur.SetSlot(0, 0, 77)
	cur.SetSlot(0, last, 78)
	cur.ClearPartition(2)
	cur.SetSlot(2, 0, 5)
	return base, cur
}

// byteViewCase is one kind of partition byte view. write encodes
// partition p of the fixture; newTarget returns a restore into a fresh,
// non-empty target and the target's partition p as a full view, which
// must equal want(p) once p is restored.
type byteViewCase struct {
	name      string
	write     func(p int) []byte
	newTarget func() (restore func(p int, r *colbytes.Reader) error, view func(p int) []byte)
	want      func(p int) []byte
}

func byteViewCases(t testing.TB) []byteViewCase {
	src := byteViewStore(t)
	ws := byteViewWorkset(src)
	base, cur := byteViewDelta(t)
	u64 := (*colbytes.Reader).U64Vals
	storeView := func(s *DenseStore[uint64]) func(int) []byte {
		return func(p int) []byte { return s.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals) }
	}
	worksetView := func(w *ColWorkset[uint64]) func(int) []byte {
		return func(p int) []byte { return w.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals) }
	}
	return []byteViewCase{{
		name:  "dense",
		write: storeView(src),
		newTarget: func() (func(int, *colbytes.Reader) error, func(int) []byte) {
			dst := NewDenseStore[uint64]("labels", src.d, src.pt)
			dst.Put(0, 999)
			return func(p int, r *colbytes.Reader) error { return dst.RestorePartitionBytes(p, r, u64) }, storeView(dst)
		},
		want: storeView(src),
	}, {
		name:  "workset",
		write: worksetView(ws),
		newTarget: func() (func(int, *colbytes.Reader) error, func(int) []byte) {
			dst := NewColWorkset[uint64]("workset", src.NumPartitions())
			for p := 0; p < src.NumPartitions(); p++ {
				dst.Add(p, src.pt.Owned[p][0], 999)
			}
			return func(p int, r *colbytes.Reader) error { return dst.RestorePartitionBytes(p, r, u64, src.pt) }, worksetView(dst)
		},
		want: worksetView(ws),
	}, {
		name:  "delta",
		write: func(p int) []byte { return cur.AppendDeltaBytes(nil, p, colbytes.AppendU64Vals) },
		newTarget: func() (func(int, *colbytes.Reader) error, func(int) []byte) {
			dst := base.Snapshot()
			return func(p int, r *colbytes.Reader) error { return dst.RestoreDeltaBytes(p, r, u64) }, storeView(dst)
		},
		want: storeView(cur),
	}}
}

func TestPartitionByteViewRoundTrip(t *testing.T) {
	src := byteViewStore(t)
	dst := NewDenseStore[uint64]("labels", src.d, src.pt)
	for p := 0; p < src.NumPartitions(); p++ {
		view := src.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		ver := dst.Version(p)
		if err := dst.RestorePartitionBytes(p, colbytes.NewReader(view), (*colbytes.Reader).U64Vals); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		if dst.Version(p) == ver {
			t.Errorf("partition %d: restore did not bump the version", p)
		}
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d entries, want %d", dst.Len(), src.Len())
	}
	src.Range(func(k uint64, v uint64) bool {
		got, ok := dst.Get(k)
		if !ok || got != v {
			t.Errorf("key %d: got (%d, %v), want (%d, true)", k, got, ok, v)
		}
		return true
	})
	// Determinism: equal contents => byte-identical views.
	for p := 0; p < src.NumPartitions(); p++ {
		a := src.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		b := dst.AppendPartitionBytes(nil, p, colbytes.AppendU64Vals)
		if string(a) != string(b) {
			t.Errorf("partition %d: views differ after round-trip", p)
		}
	}

	for _, c := range byteViewCases(t) {
		t.Run(c.name, func(t *testing.T) {
			restore, view := c.newTarget()
			for p := 0; p < src.NumPartitions(); p++ {
				r := colbytes.NewReader(c.write(p))
				if err := restore(p, r); err != nil {
					t.Fatalf("partition %d: %v", p, err)
				}
				if r.Remaining() != 0 {
					t.Fatalf("partition %d: restore left %d bytes", p, r.Remaining())
				}
				if !bytes.Equal(view(p), c.want(p)) {
					t.Fatalf("partition %d: restored state differs from the source", p)
				}
			}
		})
	}
}

// TestPartitionByteViewTruncation pins the no-half-apply property: a
// view cut at any byte boundary must fail and leave the target store
// untouched.
func TestPartitionByteViewTruncation(t *testing.T) {
	src := byteViewStore(t)
	view := src.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals)
	for cut := 0; cut < len(view); cut++ {
		dst := NewDenseStore[uint64]("labels", src.d, src.pt)
		dst.Put(0, 999) // pre-existing entry that must survive a failed restore
		if err := dst.RestorePartitionBytes(0, colbytes.NewReader(view[:cut]), (*colbytes.Reader).U64Vals); err == nil {
			t.Fatalf("cut at %d: restore succeeded on a truncated view", cut)
		}
		if got, ok := dst.Get(0); !ok || got != 999 {
			t.Fatalf("cut at %d: failed restore modified the store", cut)
		}
	}

	for _, c := range byteViewCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for p := 0; p < src.NumPartitions(); p++ {
				view := c.write(p)
				for cut := 0; cut < len(view); cut++ {
					restore, target := c.newTarget()
					before := target(p)
					if err := restore(p, colbytes.NewReader(view[:cut])); err == nil {
						t.Fatalf("partition %d, cut at %d: restore succeeded on a truncated view", p, cut)
					}
					if !bytes.Equal(target(p), before) {
						t.Fatalf("partition %d, cut at %d: failed restore modified the target", p, cut)
					}
				}
			}
		})
	}
}

func TestPartitionByteViewWrongPartition(t *testing.T) {
	src := byteViewStore(t)
	// Partition sizes differ (12 vertices over 3 partitions is even,
	// so misroute to a store with a different partitioning instead).
	b := graph.NewBuilder(true)
	for v := 0; v < 12; v++ {
		b.AddVertex(graph.VertexID(v))
	}
	d := b.Build().Dense()
	other := NewDenseStore[uint64]("labels", d, d.Partitioning(2))
	view := src.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals)
	err := other.RestorePartitionBytes(0, colbytes.NewReader(view), (*colbytes.Reader).U64Vals)
	if err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("misrouted view: err = %v, want slot-count mismatch", err)
	}

	t.Run("delta", func(t *testing.T) {
		_, cur := byteViewDelta(t)
		view := cur.AppendDeltaBytes(nil, 0, colbytes.AppendU64Vals)
		err := other.RestoreDeltaBytes(0, colbytes.NewReader(view), (*colbytes.Reader).U64Vals)
		if err == nil || !strings.Contains(err.Error(), "slots") {
			t.Fatalf("misrouted delta: err = %v, want slot-count mismatch", err)
		}
	})
	t.Run("workset", func(t *testing.T) {
		// Vertex 0 is in the workset; its view goes to the next partition.
		ws := byteViewWorkset(src)
		from := int(src.pt.PartOf[0])
		to := (from + 1) % src.NumPartitions()
		foreign := NewColWorkset[uint64]("workset", 1)
		foreign.Add(0, 1<<20, 1)
		for name, view := range map[string][]byte{
			"other partition":    ws.AppendPartitionBytes(nil, from, colbytes.AppendU64Vals),
			"index out of range": foreign.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals),
		} {
			dst := NewColWorkset[uint64]("workset", src.NumPartitions())
			err := dst.RestorePartitionBytes(to, colbytes.NewReader(view), (*colbytes.Reader).U64Vals, src.pt)
			if err == nil || !strings.Contains(err.Error(), "not in the partition") {
				t.Fatalf("%s: err = %v, want an ownership error", name, err)
			}
			if dst.Len() != 0 {
				t.Fatalf("%s: failed restore installed %d updates", name, dst.Len())
			}
		}
	})
}

// TestPartitionByteViewCOW pins the snapshot-isolation property:
// restoring into a store after SnapshotShared must not be visible
// through the capture.
func TestPartitionByteViewCOW(t *testing.T) {
	src := byteViewStore(t)
	empty := NewDenseStore[uint64]("labels", src.d, src.pt)
	cap0 := empty.SnapshotShared()
	view := src.AppendPartitionBytes(nil, 0, colbytes.AppendU64Vals)
	if err := empty.RestorePartitionBytes(0, colbytes.NewReader(view), (*colbytes.Reader).U64Vals); err != nil {
		t.Fatal(err)
	}
	if cap0.Len() != 0 {
		t.Fatalf("restore leaked %d entries into a shared capture", cap0.Len())
	}
}

// FuzzRestorePartitionBytes feeds arbitrary bytes to the three view
// decoders — the DenseStore view, the ColWorkset view and the
// DenseStore delta (kind) — as partition part. A restore must fail with
// an error or succeed, allocate within a bound set by the input's size,
// and leave a valid partition: its full view restores into a fresh
// target and encodes back to the same bytes.
func FuzzRestorePartitionBytes(f *testing.F) {
	cases := byteViewCases(f)
	for kind, c := range cases {
		for p := 0; p < 3; p++ {
			f.Add(uint8(kind), uint8(p), c.write(p))
		}
	}
	f.Fuzz(func(t *testing.T, kind, part uint8, data []byte) {
		c := cases[int(kind)%len(cases)]
		p := int(part) % 3
		restore, view := c.newTarget()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := restore(p, colbytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+16*uint64(len(data)) {
			t.Fatalf("restore of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		full := c
		if c.name == "delta" {
			full = cases[0] // a delta restores into a store: reload its full view
		}
		v := view(p)
		reload, reloaded := full.newTarget()
		if err := reload(p, colbytes.NewReader(v)); err != nil {
			t.Fatalf("the restored partition's own view does not restore: %v", err)
		}
		if !bytes.Equal(reloaded(p), v) {
			t.Fatal("the restored partition's view changed on a reload")
		}
	})
}
