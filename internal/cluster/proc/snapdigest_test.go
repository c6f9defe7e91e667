package proc

// snapdigest_test.go pins the bytes of a proc checkpoint: however the
// driver gathers the partition views, the blob SnapshotTo writes must
// stay byte for byte what it was, or checkpoints written before a change
// would no longer restore after it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
)

// TestSnapshotBlobDigests steps a CC job on gen.Grid(8, 8) and a
// PageRank job on gen.Twitter(300, 7), 4 partitions on 2 workers, and
// compares the SHA-256 of the SnapshotTo blob after 3 and after 7
// supersteps with the digests below. A snapshot also writes into a
// buffer that already holds bytes, which it must leave in front.
func TestSnapshotBlobDigests(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		graph *graph.Graph
		want  map[int]string // supersteps run -> SHA-256 of the blob
	}{
		{KindCC, gen.Grid(8, 8), map[int]string{
			3: "c7d352a3968da81724f4035d861ce62a18f31b8bc016f90082bd5a939ea65f7a",
			7: "a87e2bc439a68e0c09ff145d50faedb9aaac204c2c6d0cec333b0f1093d039bc",
		}},
		{KindPageRank, gen.Twitter(300, 7), map[int]string{
			3: "f23b0c37e3c5c29ebc9c59cd3dee30f521c9f77a0d74d4df5796c0728199f37d",
			7: "cf1a4270c48109d48fc19105ba02651e673aa3385187f7b52b84ca8225fa5806",
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			co := startTestCluster(t, eqWorkers, eqParts, nil)
			defer co.Close()
			job, err := NewJob(co, Spec{Name: "digest-" + tc.kind, Kind: tc.kind, Graph: tc.graph})
			if err != nil {
				t.Fatal(err)
			}
			s := 0
			for _, at := range []int{3, 7} {
				for ; s < at; s++ {
					if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
						t.Fatalf("superstep %d: %v", s, err)
					}
				}
				prefix := []byte("kept in front")
				buf := bytes.NewBuffer(bytes.Clone(prefix))
				if err := job.SnapshotTo(buf); err != nil {
					t.Fatalf("snapshot after %d supersteps: %v", at, err)
				}
				if !bytes.HasPrefix(buf.Bytes(), prefix) {
					t.Fatalf("snapshot after %d supersteps overwrote the bytes in front of it", at)
				}
				sum := sha256.Sum256(buf.Bytes()[len(prefix):])
				if got := hex.EncodeToString(sum[:]); got != tc.want[at] {
					t.Errorf("blob after %d supersteps (%d B) has SHA-256 %s, want %s", at, buf.Len()-len(prefix), got, tc.want[at])
				}
			}
		})
	}
}
