package pagerank

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiflow/internal/graph/gen"
)

// viewDigests returns one "name sha256" line per pinned rank view of
// PageRank on Twitter(400, 1): every SnapshotPartition at superstep 0
// and after three supersteps, and, after partition 2 is lost, the
// SnapshotTo and SnapshotPartition(2) views with absent slots.
// TestRankDigests pins the SnapshotTo views of the run itself.
func viewDigests(t *testing.T) []string {
	t.Helper()
	const nparts = 4
	pr := NewColumnar(gen.Twitter(400, 1), nparts, 0.85, nil)
	var lines []string
	add := func(at string, write func(*bytes.Buffer) error) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", at, sha256.Sum256(buf.Bytes())))
	}
	parts := func(at string) {
		for p := 0; p < nparts; p++ {
			add(fmt.Sprintf("%s/partition=%d", at, p), func(b *bytes.Buffer) error { return pr.SnapshotPartition(p, b) })
		}
	}
	parts("superstep=0")
	for s := 0; s < 3; s++ {
		if _, err := pr.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	parts("superstep=3")
	pr.ClearPartitions([]int{2})
	add("lost=2", pr.SnapshotTo)
	add("lost=2/partition=2", func(b *bytes.Buffer) error { return pr.SnapshotPartition(2, b) })
	return lines
}

// TestViewDigests holds PageRank's per-partition and partly lost rank
// views to digests committed in testdata/view_digests.txt: a change to
// how the views are encoded must reproduce every byte. Regenerate with
// OPTIFLOW_UPDATE_GOLDEN=1 only for a deliberate format change.
func TestViewDigests(t *testing.T) {
	path := filepath.Join("testdata", "view_digests.txt")
	lines := viewDigests(t)
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest fixture %s: %v", path, err)
	}
	if want := string(raw); got != want {
		t.Errorf("view digests drifted:\n got\n%s want\n%s", got, want)
	}
}
