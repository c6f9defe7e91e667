package cc

import (
	"testing"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// newAsyncIncremental returns the per-partition incremental checkpoint:
// the async epoch pipeline submitting only changed partitions.
func newAsyncIncremental(interval int) *recovery.AsyncCheckpoint {
	p := recovery.NewAsyncCheckpoint(interval, checkpoint.NewMemoryStore(), 2)
	p.Incremental = true
	return p
}

func TestIncrementalCheckpointRecoveryIsCorrect(t *testing.T) {
	g := gen.Grid(10, 10)
	truth := ref.ConnectedComponents(g)
	inj := failure.NewScripted(nil).At(8, 1)
	pol := newAsyncIncremental(2)
	res, err := Run(g, Options{Parallelism: 4, Injector: inj, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	requireComponentsEqual(t, res.Components, truth)
	if res.Ticks <= res.Supersteps {
		t.Fatal("rollback should re-execute supersteps")
	}
}

// TestIncrementalGranularityFindingUnderHashPartitioning documents the
// measured negative result: per-PARTITION incremental checkpointing
// cannot pay off under hash partitioning, because every partition keeps
// receiving a trickle of updates until global convergence, so every
// partition is re-written at every checkpoint anyway. Per-KEY delta
// logs (recovery.DeltaCheckpoint) are the granularity that works —
// see TestDeltaCheckpointWritesLessThanFullCheckpoints.
func TestIncrementalGranularityFindingUnderHashPartitioning(t *testing.T) {
	g := gen.Grid(16, 16)
	full := recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	if _, err := Run(g, Options{Parallelism: 4, Policy: full}); err != nil {
		t.Fatal(err)
	}
	incr := newAsyncIncremental(1)
	if _, err := Run(g, Options{Parallelism: 4, Policy: incr}); err != nil {
		t.Fatal(err)
	}
	fb, ib := full.Overhead().BytesWritten, incr.Overhead().BytesWritten
	// Stays in the same ballpark as full checkpoints — the documented
	// limitation. If this ever drops sharply the partitioning must have
	// become locality-preserving; revisit the docs.
	if ib < fb/2 {
		t.Fatalf("incremental unexpectedly beat full checkpoints (%d vs %d bytes); docs are stale", ib, fb)
	}
}
