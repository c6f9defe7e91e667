package proc

// fuzz_test.go holds the native fuzz targets of the wire codec's
// decoders, seeded from the committed golden fixtures. A plain go test
// runs the seeds only; explore with
//
//	go test -run '^$' -fuzz FuzzDecodeRawPayload -fuzztime 20s ./internal/cluster/proc/
//	go test -run '^$' -fuzz FuzzDecodeSnapshot -fuzztime 20s ./internal/cluster/proc/
//	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 20s ./internal/cluster/proc/

import (
	"bytes"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/cluster/proc/netfault"
)

// goldenPayloads returns every committed testdata/raw_*.hex fixture as
// a payload: the frame fixtures with their length prefix cut, so each
// starts at its version byte as the snapshot blob does.
func goldenPayloads(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "raw_*.hex"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden fixtures to seed from (err %v)", err)
	}
	var out [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			f.Fatalf("corrupt golden fixture %s: %v", path, err)
		}
		if !strings.HasSuffix(path, "raw_snapshot.hex") {
			b = b[netfault.HeaderLen:]
		}
		out = append(out, b)
	}
	return out
}

// checkDecodeError fails the fuzz input unless err is nil or one of the
// typed rejections a decoder may answer hostile bytes with.
func checkDecodeError(t *testing.T, err error) {
	if err != nil && !typedWireError(err) {
		t.Fatalf("untyped error: %v", err)
	}
}

// FuzzDecodeRawPayload feeds arbitrary bytes to the payload decoder,
// recycling one arena across inputs as the ctrl loops do.
func FuzzDecodeRawPayload(f *testing.F) {
	for _, b := range goldenPayloads(f) {
		f.Add(b)
	}
	var arena []byte
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _, err := decodePayload(b, &arena)
		checkDecodeError(t, err)
	})
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the checkpoint blob
// decoder.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, b := range goldenPayloads(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, err := decodeSnapshot(b)
		checkDecodeError(t, err)
	})
}

// FuzzReadFrame feeds arbitrary bytes, length prefix included, to the
// frame reader. Every rejection is typed, and no read allocates more
// than allocBound of its input, whatever the prefix claims.
func FuzzReadFrame(f *testing.F) {
	for _, b := range goldenPayloads(f) {
		frame := make([]byte, netfault.HeaderLen, netfault.HeaderLen+len(b))
		netfault.PutHeader(frame, len(b))
		f.Add(append(frame, b...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var err error
		limit := allocBound(len(b))
		grew := allocBytes(limit, func() {
			_, _, err = readFrame(bytes.NewReader(b), nil)
		})
		if err != nil && err != io.EOF && !typedWireError(err) {
			t.Fatalf("untyped error: %v", err)
		}
		if grew > limit {
			t.Fatalf("a %d-byte input allocated %d bytes, want <= %d", len(b), grew, limit)
		}
	})
}
