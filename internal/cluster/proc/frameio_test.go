package proc

// frameio_test.go pins the frame-I/O properties: the hot loop allocates
// O(1) per frame regardless of payload size (pooled assembly/receive
// buffers, stack header scratch), the netfault.MaxFrame cap rejects
// oversized payloads with a typed error on both the encode and decode
// side, and what a read allocates follows the bytes that arrive, not
// what the length prefix claims.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"optiflow/internal/cluster/proc/netfault"
)

// encodeFrame renders one frame as a self-contained byte block.
func encodeFrame(id uint64, m any) ([]byte, error) {
	return appendFrame(nil, id, m)
}

// allocBound is the most a decoder may allocate for an n-byte hostile
// input: 64 KiB, plus 16 bytes per input byte.
func allocBound(n int) uint64 { return 64<<10 + 16*uint64(n) }

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

// bigFetchResp builds a payload — four partition views covering n
// vertices — big enough that any per-element allocation would dominate
// the counters.
func bigFetchResp(n int) FetchResp {
	var resp FetchResp
	for p := 0; p < 4; p++ {
		view := make([]byte, 4+9*n/4)
		for i := range view {
			view[i] = byte(i * (p + 3))
		}
		resp.Parts = append(resp.Parts, PartBlob{Part: p, Data: view})
	}
	return resp
}

// TestFrameEncodeAllocs pins the regression the pooled assembly buffer
// fixed: encoding a 4096-vertex frame must not allocate per vertex (or
// per frame, once the pool is warm).
func TestFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	msg := bigFetchResp(4096)
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	writeFrame(&sink, 1, msg) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		sink.Reset()
		if err := writeFrame(&sink, 1, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("frame encode: %.1f allocs/op, want <= 2 (pooled buffer regression)", allocs)
	}
}

// TestFrameDecodeAllocs pins the arena property: decoding a 4096-vertex
// frame costs a handful of allocations (arena, section bookkeeping,
// boxing), not one per vertex.
func TestFrameDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	frame, err := encodeFrame(1, bigFetchResp(4096))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	readFrame(r, nil) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		if _, _, err := readFrame(r, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("frame decode: %.1f allocs/op, want <= 16 (arena regression)", allocs)
	}
}

// TestCheckSizeBoundary pins the cap itself: netfault.MaxFrame passes,
// one byte more is a *SizeError naming both.
func TestCheckSizeBoundary(t *testing.T) {
	if err := checkSize(netfault.MaxFrame); err != nil {
		t.Errorf("at the cap: %v", err)
	}
	var se *SizeError
	if err := checkSize(netfault.MaxFrame + 1); !errors.As(err, &se) {
		t.Fatalf("over the cap: got %v, want *SizeError", err)
	}
	if se.Size != netfault.MaxFrame+1 || se.Limit != netfault.MaxFrame {
		t.Errorf("SizeError = %+v", se)
	}
}

// overCapRestore returns a RestoreReq whose frame payload is exactly
// netfault.MaxFrame+over bytes.
func overCapRestore(t *testing.T, over int) RestoreReq {
	t.Helper()
	small := RestoreReq{Parts: []PartBlob{{Part: 1}}}
	frame, err := encodeFrame(1, small)
	if err != nil {
		t.Fatal(err)
	}
	fixed := len(frame) - netfault.HeaderLen
	small.Parts[0].Data = make([]byte, netfault.MaxFrame+over-fixed)
	return small
}

// TestMaxFrameEncodeCap pins the cap on the encode side: a payload one
// byte over netfault.MaxFrame fails with a typed *SizeError (so a
// caller can distinguish policy from transport) and leaves dst
// untouched, while the exact boundary passes.
func TestMaxFrameEncodeCap(t *testing.T) {
	at := overCapRestore(t, 1)
	blob := at.Parts[0].Data
	at.Parts[0].Data = blob[:len(blob)-1]
	// One buffer holds both encodes, so the test never holds more than
	// one frame's worth of it.
	buf := make([]byte, 0, len("prefix")+netfault.HeaderLen+netfault.MaxFrame+1)
	exact, err := appendFrame(buf, 1, at)
	if err != nil {
		t.Fatalf("payload exactly at the cap rejected: %v", err)
	}
	if len(exact) != netfault.HeaderLen+netfault.MaxFrame {
		t.Fatalf("boundary frame is %d bytes, want %d", len(exact), netfault.HeaderLen+netfault.MaxFrame)
	}
	at.Parts[0].Data = blob
	dst := append(buf, "prefix"...)
	got, err := appendFrame(dst, 1, at)
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversized encode: err = %v, want *SizeError", err)
	}
	if se.Size != netfault.MaxFrame+1 || se.Limit != netfault.MaxFrame {
		t.Errorf("SizeError = %+v, want Size=%d Limit=%d", se, netfault.MaxFrame+1, netfault.MaxFrame)
	}
	if string(got) != "prefix" {
		t.Errorf("failed encode left %d stray bytes in dst", len(got)-len(dst))
	}
}

// guardReader yields its header and then fails the test on any further
// read: the payload must not be touched.
type guardReader struct {
	t   *testing.T
	hdr []byte
}

func (g *guardReader) Read(p []byte) (int, error) {
	if len(g.hdr) == 0 {
		g.t.Error("the frame reader read past a length prefix over the cap")
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, g.hdr)
	g.hdr = g.hdr[n:]
	return n, nil
}

// TestMaxFrameDecodeCap pins the cap on the decode side: a length
// prefix claiming netfault.MaxFrame+1 is rejected with the same typed
// error before any payload byte is read.
func TestMaxFrameDecodeCap(t *testing.T) {
	hdr := make([]byte, netfault.HeaderLen)
	netfault.PutHeader(hdr, netfault.MaxFrame+1)
	_, _, err := readFrame(&guardReader{t: t, hdr: hdr}, nil)
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversized decode: err = %v, want *SizeError", err)
	}
	if se.Size != netfault.MaxFrame+1 || se.Limit != netfault.MaxFrame {
		t.Errorf("SizeError = %+v, want Size=%d Limit=%d", se, netfault.MaxFrame+1, netfault.MaxFrame)
	}
}

// TestFrameReaderBoundedAlloc feeds the frame reader length prefixes
// claiming 1 KiB, 1 MiB and 64 MiB over a 10-byte body. Each read fails
// by type, and allocates no more than allocBound of the 14 bytes sent:
// the payload buffer grows as bytes arrive, not to what the prefix
// claims. Each read starts from an empty frame pool, as after a GC, so
// the receive buffer is always allocated in full.
func TestFrameReaderBoundedAlloc(t *testing.T) {
	for _, claim := range []int{1 << 10, 1 << 20, netfault.MaxFrame} {
		t.Run(fmt.Sprint(claim), func(t *testing.T) {
			frame := make([]byte, netfault.HeaderLen, netfault.HeaderLen+10)
			netfault.PutHeader(frame, claim)
			frame = append(frame, wireVersion, kOKResp, 0, 0, 0, 0, 0, 0, 0, 0)
			var err error
			limit := allocBound(len(frame))
			runtime.GC()
			runtime.GC()
			grew := allocBytes(limit, func() {
				_, _, err = readFrame(bytes.NewReader(frame), nil)
			})
			if !typedWireError(err) {
				t.Errorf("err = %v, want a typed rejection", err)
			}
			if grew > limit {
				t.Errorf("a %d-byte input claiming %d bytes allocated %d bytes, want <= %d", len(frame), claim, grew, limit)
			}
		})
	}
}
