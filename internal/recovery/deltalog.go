package recovery

import (
	"bytes"
	"fmt"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/clock"
)

// DeltaJob is implemented by jobs that can serialise just the state
// changes since their previous delta snapshot. Unlike per-partition
// incremental snapshots (IncrementalJob), a delta log shrinks with the
// algorithm's update rate even under hash partitioning, where every
// partition keeps receiving a trickle of updates until convergence.
type DeltaJob interface {
	Job
	// SnapshotDelta serialises all changes since the previous
	// SnapshotDelta (or since the last full SnapshotTo) and resets the
	// change tracking.
	SnapshotDelta(buf *bytes.Buffer) error
	// RestoreFromChain rebuilds the state from a base snapshot followed
	// by the ordered deltas, then marks the change tracking clean.
	RestoreFromChain(base []byte, deltas [][]byte) error
}

// DeltaCheckpoint is rollback recovery with delta-log snapshots: a full
// base snapshot once, then only the per-interval change sets. After
// CompactEvery deltas the chain is compacted into a fresh base, keeping
// recovery replay bounded.
//
// The chain is an epoch checkpoint (checkpoint.CommitRecord) whose
// slot 0 is the base and slot i the i-th delta. Each link is written
// and committed through a checkpoint.AsyncWriter that the policy drains
// before returning, so the barrier pays for the write and a link whose
// save fails is never part of a committed chain. A compaction commits
// the new base alone and the writer collects the old links.
type DeltaCheckpoint struct {
	// Interval is the superstep period between deltas (>= 1).
	Interval int
	// CompactEvery bounds the chain length (16 if zero).
	CompactEvery int
	// Store is the chain storage.
	Store checkpoint.Store

	writer   *checkpoint.AsyncWriter
	buf      bytes.Buffer // the link being written; the writer copies it
	ckptTime time.Duration
}

// NewDeltaCheckpoint returns the policy with the given interval and
// store.
func NewDeltaCheckpoint(interval int, store checkpoint.Store) *DeltaCheckpoint {
	if interval < 1 {
		interval = 1
	}
	return &DeltaCheckpoint{Interval: interval, CompactEvery: 16, Store: store}
}

// PolicyName implements Policy.
func (c *DeltaCheckpoint) PolicyName() string {
	return fmt.Sprintf("delta-checkpoint(k=%d)", c.Interval)
}

func (c *DeltaCheckpoint) deltaJob(job Job) (DeltaJob, error) {
	dj, ok := job.(DeltaJob)
	if !ok {
		return nil, fmt.Errorf("recovery: job %s does not support delta snapshots", job.Name())
	}
	return dj, nil
}

// Setup implements Policy: write the base snapshot of the initial
// state.
func (c *DeltaCheckpoint) Setup(job Job) error {
	dj, err := c.deltaJob(job)
	if err != nil {
		return err
	}
	c.writer = checkpoint.NewAsyncWriter(c.Store, job.Name(), checkpoint.AsyncOptions{})
	return c.write(dj, -1, true)
}

// AfterSuperstep implements Policy.
func (c *DeltaCheckpoint) AfterSuperstep(job Job, superstep int) error {
	if (superstep+1)%c.Interval != 0 {
		return nil
	}
	dj, err := c.deltaJob(job)
	if err != nil {
		return err
	}
	compactEvery := c.CompactEvery
	if compactEvery <= 0 {
		compactEvery = 16
	}
	rec, _ := c.writer.LastCommitted()
	return c.write(dj, superstep, len(rec.Parts)-1 >= compactEvery)
}

// write commits one link: a fresh base when compacting, else the next
// delta.
func (c *DeltaCheckpoint) write(dj DeltaJob, superstep int, compact bool) error {
	start := clock.Now()
	c.buf.Reset()
	var dirty []int // nil: the base replaces the whole chain
	if compact {
		if err := dj.SnapshotTo(&c.buf); err != nil {
			return fmt.Errorf("recovery: base snapshot of %s: %v", dj.Name(), err)
		}
		// Reset delta tracking so the next delta starts from this base:
		// a throw-away delta snapshot drains the pending change set.
		var drain bytes.Buffer
		if err := dj.SnapshotDelta(&drain); err != nil {
			return fmt.Errorf("recovery: draining change set of %s: %v", dj.Name(), err)
		}
	} else {
		if err := dj.SnapshotDelta(&c.buf); err != nil {
			return fmt.Errorf("recovery: delta snapshot of %s: %v", dj.Name(), err)
		}
		rec, _ := c.writer.LastCommitted()
		dirty = []int{len(rec.Parts)}
	}
	err := c.writer.Submit(superstep, chainLink(c.buf.Bytes()), dirty)
	if err == nil {
		err = c.writer.Drain()
	}
	if err != nil {
		return fmt.Errorf("recovery: writing checkpoint chain of %s after superstep %d: %v", dj.Name(), superstep, err)
	}
	c.ckptTime += clock.Since(start)
	return nil
}

// chainLink is the one-blob capture of a chain link; the writer saves
// it in the slot the submission names.
type chainLink []byte

func (l chainLink) NumPartitions() int { return 1 }

func (l chainLink) SnapshotPartition(_ int, buf *bytes.Buffer) error {
	_, err := buf.Write(l)
	return err
}

// OnFailure implements Policy: replay base + deltas of the committed
// chain, resume after the newest checkpointed superstep.
func (c *DeltaCheckpoint) OnFailure(job Job, _ Failure) (int, error) {
	dj, err := c.deltaJob(job)
	if err != nil {
		return 0, err
	}
	rec, links, ok, err := checkpoint.LoadCommitted(c.Store, dj.Name())
	if err != nil {
		return 0, fmt.Errorf("recovery: loading chain of %s: %v", dj.Name(), err)
	}
	if !ok {
		return 0, fmt.Errorf("recovery: no base snapshot for %s despite Setup", dj.Name())
	}
	base, ok := links[0]
	deltas := make([][]byte, 0, len(links))
	for i := 1; ok && i < len(links); i++ {
		var d []byte
		d, ok = links[i]
		deltas = append(deltas, d)
	}
	if !ok {
		return 0, fmt.Errorf("recovery: chain of %s is not slots 0..%d", dj.Name(), len(links)-1)
	}
	if err := dj.RestoreFromChain(base, deltas); err != nil {
		return 0, fmt.Errorf("recovery: replaying chain of %s: %v", dj.Name(), err)
	}
	return rec.Superstep + 1, nil
}

// Overhead implements Policy.
func (c *DeltaCheckpoint) Overhead() Overhead {
	var stats checkpoint.AsyncStats
	if c.writer != nil {
		stats = c.writer.Stats()
	}
	return Overhead{
		Checkpoints:    stats.Commits,
		BytesWritten:   c.Store.BytesWritten(),
		CheckpointTime: c.ckptTime,
	}
}
