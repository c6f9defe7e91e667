package proc

// fuzz_test.go holds the native fuzz targets of the raw codec's two
// decoders, seeded from the committed golden fixtures. A plain go test
// runs the seeds only; explore with
//
//	go test -run '^$' -fuzz FuzzDecodeRawPayload -fuzztime 20s ./internal/cluster/proc/
//	go test -run '^$' -fuzz FuzzDecodeSnapshot -fuzztime 20s ./internal/cluster/proc/

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/cluster/proc/wire"
	"optiflow/internal/colbytes"
)

// goldenPayloads returns every committed testdata/raw_*.hex fixture as
// a snapshot blob: the frame fixtures with their length prefix cut, so
// each starts at its codec tag as the snapshot does.
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
// typed rejections a raw decoder may answer hostile bytes with.
func checkDecodeError(t *testing.T, err error) {
	var ve *wire.VersionError
	var se *SnapshotError
	if err != nil && !errors.Is(err, colbytes.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) &&
		!errors.As(err, &ve) && !errors.As(err, &se) {
		t.Fatalf("untyped error: %v", err)
	}
}

// FuzzDecodeRawPayload feeds arbitrary bytes to the raw payload decoder,
// recycling one arena across inputs as the ctrl loops do.
func FuzzDecodeRawPayload(f *testing.F) {
	for _, b := range goldenPayloads(f) {
		f.Add(b[1:]) // the decoder starts past the codec tag
	}
	var arena []byte
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _, err := decodeRawPayload(b, &arena)
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
