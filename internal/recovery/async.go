package recovery

import (
	"bytes"
	"fmt"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/clock"
)

// IncrementalJob is implemented by jobs whose state supports
// per-partition snapshots. An incremental checkpoint then writes only
// the partitions that changed since the previous one — a large saving
// for delta iterations, where most partitions stop changing long
// before convergence.
type IncrementalJob interface {
	Job
	// PartitionVersions returns one change counter per partition; it
	// must change whenever that partition's state changes.
	PartitionVersions() []uint64
	// SnapshotPartition serialises one partition's full state.
	SnapshotPartition(p int, buf *bytes.Buffer) error
	// RestorePartition replaces one partition's state from a snapshot.
	RestorePartition(p int, data []byte) error
}

// AsyncJob is implemented by jobs that support the asynchronous
// checkpoint pipeline: a cheap consistent capture at the superstep
// barrier (copy-on-write views of the partitioned state) that
// background goroutines encode and persist while the next superstep
// already mutates the live state.
type AsyncJob interface {
	IncrementalJob
	// CaptureSnapshot returns an immutable capture of the current
	// iteration state. It must be O(partitions), not O(entries): the
	// whole point is that the barrier no longer pays for serialisation.
	CaptureSnapshot() checkpoint.PartitionSnapshot
}

// Finisher is implemented by policies with background work in flight.
// iterate.Loop calls Finish once when the iteration terminates
// normally, so a checkpoint still being written can land (or fail
// loudly) before the run is declared done.
type Finisher interface {
	Finish(job Job) error
}

// AsyncCheckpoint is pessimistic rollback recovery with the capture /
// persist split: every Interval supersteps the barrier only takes a
// copy-on-write capture and submits it to a background writer; per-
// partition encoding and stable-storage writes (gzip too, on a
// checkpoint.Compressed store) overlap the following superstep(s). An
// epoch becomes restorable only once its atomic commit marker lands
// (checkpoint.Commit), and OnFailure fences the writer — discarding
// queued epochs, awaiting the one mid-write — so a torn snapshot is
// never restored. With Incremental set it is the per-partition
// incremental checkpoint: only changed partitions are written.
type AsyncCheckpoint struct {
	// Interval is the superstep period between snapshots (>= 1).
	Interval int
	// Store is the stable storage target.
	Store checkpoint.Store
	// Parallelism is the number of encoder goroutines per checkpoint.
	Parallelism int
	// Incremental submits only the partitions whose version changed
	// since the last submission; the commit record stitches unchanged
	// partitions to their older epochs.
	Incremental bool

	writer      *checkpoint.AsyncWriter
	saved       []uint64 // versions at the last submission (Incremental)
	barrierTime time.Duration
}

// NewAsyncCheckpoint returns the policy with the given interval, store
// and encoder parallelism.
func NewAsyncCheckpoint(interval int, store checkpoint.Store, parallelism int) *AsyncCheckpoint {
	if interval < 1 {
		interval = 1
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return &AsyncCheckpoint{Interval: interval, Store: store, Parallelism: parallelism}
}

// PolicyName implements Policy.
func (c *AsyncCheckpoint) PolicyName() string {
	return fmt.Sprintf("async-checkpoint(k=%d,p=%d)", c.Interval, c.Parallelism)
}

func (c *AsyncCheckpoint) async(job Job) (AsyncJob, error) {
	aj, ok := job.(AsyncJob)
	if !ok {
		return nil, fmt.Errorf("recovery: job %s does not support async capture", job.Name())
	}
	return aj, nil
}

// Setup implements Policy: capture and submit the initial state so a
// failure before the first periodic checkpoint rolls back to superstep
// 0. The write itself overlaps the first supersteps.
func (c *AsyncCheckpoint) Setup(job Job) error {
	aj, err := c.async(job)
	if err != nil {
		return err
	}
	c.writer = checkpoint.NewAsyncWriter(c.Store, job.Name(), checkpoint.AsyncOptions{Parallelism: c.Parallelism})
	c.saved = append([]uint64(nil), aj.PartitionVersions()...)
	return c.submit(aj, -1, nil)
}

// AfterSuperstep implements Policy: the barrier cost is one capture +
// queue insert.
func (c *AsyncCheckpoint) AfterSuperstep(job Job, superstep int) error {
	if (superstep+1)%c.Interval != 0 {
		return nil
	}
	aj, err := c.async(job)
	if err != nil {
		return err
	}
	var dirty []int
	if c.Incremental {
		versions := aj.PartitionVersions()
		dirty = make([]int, 0, len(versions))
		for p, v := range versions {
			if v != c.saved[p] {
				dirty = append(dirty, p)
				c.saved[p] = v
			}
		}
		if len(dirty) == 0 {
			return nil
		}
	}
	return c.submit(aj, superstep, dirty)
}

func (c *AsyncCheckpoint) submit(aj AsyncJob, superstep int, dirty []int) error {
	start := clock.Now()
	snap := aj.CaptureSnapshot()
	err := c.writer.Submit(superstep, snap, dirty)
	c.barrierTime += clock.Since(start)
	if err != nil {
		return fmt.Errorf("recovery: submitting checkpoint of %s after superstep %d: %v", aj.Name(), superstep, err)
	}
	return nil
}

// OnFailure implements Policy: fence the writer (drop queued epochs,
// await the one mid-write), then restore the newest committed epoch in
// parallel and resume right after the superstep it captured. A write
// that failed discarded its own blobs before any commit named them, so
// the committed epoch it would have replaced is still whole and is the
// restore target; the writer's error stays sticky and fails the next
// submission.
func (c *AsyncCheckpoint) OnFailure(job Job, _ Failure) (int, error) {
	aj, err := c.async(job)
	if err != nil {
		return 0, err
	}
	c.writer.CancelPending()
	c.writer.Drain()
	rec, blobs, ok, err := checkpoint.LoadCommitted(c.Store, aj.Name())
	if err != nil {
		return 0, fmt.Errorf("recovery: loading committed checkpoint of %s: %v", aj.Name(), err)
	}
	if !ok {
		return 0, fmt.Errorf("recovery: no committed checkpoint for %s despite Setup", aj.Name())
	}
	if err := checkpoint.RestorePartitions(blobs, c.Parallelism, aj.RestorePartition); err != nil {
		return 0, fmt.Errorf("recovery: restoring %s: %v", aj.Name(), err)
	}
	// Restoring counts as a mutation; resync so the next incremental
	// submission only writes genuinely new changes.
	copy(c.saved, aj.PartitionVersions())
	return rec.Superstep + 1, nil
}

// Finish implements Finisher: await in-flight commits at normal
// termination so the run never ends with a half-written epoch.
func (c *AsyncCheckpoint) Finish(job Job) error {
	if c.writer == nil {
		return nil
	}
	if err := c.writer.Drain(); err != nil {
		return fmt.Errorf("recovery: draining checkpoint writer of %s: %v", job.Name(), err)
	}
	return nil
}

// Overhead implements Policy. CheckpointTime is what the iteration
// actually stalled for (the barrier captures), matching its meaning for
// the synchronous policies where stall and total cost coincide;
// CommitTime is the end-to-end capture-to-durable cost that ran in the
// background.
func (c *AsyncCheckpoint) Overhead() Overhead {
	var stats checkpoint.AsyncStats
	if c.writer != nil {
		stats = c.writer.Stats()
	}
	return Overhead{
		Checkpoints:    stats.Commits,
		BytesWritten:   c.Store.BytesWritten(),
		CheckpointTime: c.barrierTime,
		BarrierTime:    c.barrierTime,
		CommitTime:     stats.CommitTime,
	}
}
