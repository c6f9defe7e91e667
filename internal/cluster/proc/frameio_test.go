package proc

// frameio_test.go pins the two frame-I/O properties PR 10 added: the
// hot loop allocates O(1) per frame regardless of payload size (pooled
// assembly/receive buffers, stack header scratch), and the configurable
// frame-size cap rejects oversized payloads with a typed error on both
// the encode and decode side.

import (
	"bytes"
	"errors"
	"testing"

	"optiflow/internal/cluster/proc/wire"
)

// encodeFrame renders one frame as a self-contained byte block under
// the default policy.
func encodeFrame(id uint64, m any) ([]byte, error) {
	return appendFrame(nil, id, m, defaultWire)
}

// bigFetchResp builds a raw-encodable payload — four partition views
// covering n vertices — big enough that any per-element allocation
// would dominate the counters.
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
// fixed: encoding a 4096-vertex raw frame must not allocate per vertex
// (or per frame, once the pool is warm).
func TestFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	msg := bigFetchResp(4096)
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	writeFrameCfg(&sink, 1, msg, defaultWire) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		sink.Reset()
		if err := writeFrameCfg(&sink, 1, msg, defaultWire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("raw frame encode: %.1f allocs/op, want <= 2 (pooled buffer regression)", allocs)
	}
}

// TestFrameDecodeAllocs pins the arena property: decoding a
// 4096-vertex raw frame costs a handful of allocations (arena, section
// bookkeeping, boxing), not one per vertex.
func TestFrameDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	frame, err := encodeFrame(1, bigFetchResp(4096))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	readFrameCfg(r, defaultWire) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		if _, _, err := readFrameCfg(r, defaultWire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("raw frame decode: %.1f allocs/op, want <= 16 (arena regression)", allocs)
	}
}

// TestMaxFrameEncodeCap pins the configurable cap on the encode side:
// a payload one byte over the limit fails with a typed *wire.SizeError
// (so a caller can distinguish policy from transport), the exact
// boundary passes, and a failed encode leaves dst untouched.
func TestMaxFrameEncodeCap(t *testing.T) {
	msg := bigFetchResp(100)
	exact, err := encodeFrame(1, msg)
	if err != nil {
		t.Fatal(err)
	}
	payload := len(exact) - 4 // minus the length prefix

	if _, err := appendFrame(nil, 1, msg, &wireCfg{maxFrame: payload}); err != nil {
		t.Errorf("payload exactly at the cap rejected: %v", err)
	}
	dst := []byte("prefix")
	got, err := appendFrame(dst, 1, msg, &wireCfg{maxFrame: payload - 1})
	var se *wire.SizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversized encode: err = %v, want *wire.SizeError", err)
	}
	if se.Size != payload || se.Limit != payload-1 {
		t.Errorf("SizeError = %+v, want Size=%d Limit=%d", se, payload, payload-1)
	}
	if string(got) != "prefix" {
		t.Errorf("failed encode left %d stray bytes in dst", len(got)-len(dst))
	}
}

// TestMaxFrameDecodeCap pins the cap on the decode side: a frame legal
// under the sender's policy but over the receiver's limit is rejected
// before its payload is read, with the same typed error.
func TestMaxFrameDecodeCap(t *testing.T) {
	frame, err := encodeFrame(1, bigFetchResp(100))
	if err != nil {
		t.Fatal(err)
	}
	payload := len(frame) - 4

	if _, _, err := readFrameCfg(bytes.NewReader(frame), &wireCfg{maxFrame: payload}); err != nil {
		t.Errorf("frame exactly at the cap rejected: %v", err)
	}
	_, _, err = readFrameCfg(bytes.NewReader(frame), &wireCfg{maxFrame: payload - 1})
	var se *wire.SizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversized decode: err = %v, want *wire.SizeError", err)
	}
	if se.Size != payload || se.Limit != payload-1 {
		t.Errorf("SizeError = %+v, want Size=%d Limit=%d", se, payload, payload-1)
	}
}
