package proc

import (
	"fmt"
	"io"
	"os"
	"testing"
)

// envGobCheck switches a re-executed test binary into the
// wire-compatibility decoder: frames in on stdin, one decoded-value
// digest per line on stdout.
const envGobCheck = "OPTIFLOW_PROC_GOBCHECK"

// TestMain makes the test binary a valid worker host: when the
// coordinator re-executes it with the worker environment set,
// MaybeChildMode takes over and never returns. The parent run falls
// through to the tests.
func TestMain(m *testing.M) {
	if os.Getenv(envGobCheck) == "1" {
		if err := runGobCheck(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "optiflow gob-check:", err)
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

// runGobCheck is the child half of the wire-compatibility suite: a
// fresh process (fresh gob type registry, no state shared with the
// encoder beyond this package's init) decodes length-prefixed frames
// from stdin until EOF and prints one Go-syntax digest per decoded
// message. The parent compares the digests against its own rendering
// of what it encoded, proving that every wire type survives a
// cross-process round trip.
func runGobCheck(in io.Reader, out io.Writer) error {
	for {
		m, err := readFrame(in)
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
