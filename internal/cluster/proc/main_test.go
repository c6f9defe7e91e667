package proc

import (
	"fmt"
	"io"
	"os"
	"testing"
)

// envDecodeCheck switches a re-executed test binary into the golden
// frame decoder: frames in on stdin, one decoded-value digest per line
// on stdout.
const envDecodeCheck = "OPTIFLOW_PROC_DECODECHECK"

// TestMain makes the test binary a valid worker host: when the
// coordinator re-executes it with the worker environment set,
// MaybeChildMode takes over and never returns. The parent run falls
// through to the tests.
func TestMain(m *testing.M) {
	if os.Getenv(envDecodeCheck) == "1" {
		if err := runDecodeCheck(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "optiflow decode-check:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	// Workers re-executed from this binary poison every arena they
	// recycle (see TestRelayArenaLifetime); the tests themselves do not.
	poisonRecycled = true
	MaybeChildMode()
	poisonRecycled = false
	os.Exit(m.Run())
}

// runDecodeCheck is the child half of TestRawGoldenFrames: a fresh
// process, sharing nothing with the encoder but the committed bytes,
// decodes length-prefixed frames from stdin until EOF and prints one
// Go-syntax digest per decoded message. The parent compares the digests
// against its own rendering of what it encoded, proving that every
// frame kind survives a cross-process round trip.
func runDecodeCheck(in io.Reader, out io.Writer) error {
	for {
		_, m, err := readFrame(in, nil)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%#v\n", m); err != nil {
			return err
		}
	}
}
