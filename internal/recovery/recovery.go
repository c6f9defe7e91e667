// Package recovery implements the fault-tolerance strategies the paper
// contrasts (§2.2):
//
//   - Optimistic — the paper's contribution: no checkpoints; after a
//     failure a user-supplied compensation function transitions the
//     algorithm to a consistent state from which the fixpoint iteration
//     converges to the correct result. Failure-free execution pays zero
//     overhead.
//   - Checkpoint — classic pessimistic rollback recovery: snapshot the
//     iteration state to stable storage every k supersteps; on failure
//     restore the latest snapshot and redo the lost supersteps.
//   - Restart — the degenerate lineage fallback for iterative dataflows
//     whose supersteps depend on all partitions of the previous one:
//     recomputing lost partitions means restarting the iteration.
//   - None — no fault tolerance; a failure aborts the job.
package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"optiflow/internal/checkpoint"
	"optiflow/internal/clock"
)

// Job is the recovery-relevant surface of an iterative computation: the
// operations a policy needs to snapshot, restore, reset or compensate
// the partitioned iteration state.
type Job interface {
	// Name identifies the job in checkpoint storage.
	Name() string
	// SnapshotTo serialises the full iteration state (solution set,
	// workset, rank vector, ...) for checkpointing.
	SnapshotTo(w *bytes.Buffer) error
	// RestoreFrom replaces the iteration state from a snapshot.
	RestoreFrom(data []byte) error
	// ClearPartitions destroys the listed state partitions — the direct
	// effect of their owning worker crashing.
	ClearPartitions(parts []int)
	// Compensate invokes the algorithm's compensation function after
	// the listed partitions were lost and re-assigned. Implementations
	// may touch every partition: restoring a consistent global state
	// (e.g. ranks summing to one) can require it.
	Compensate(lost []int) error
	// ResetToInitial rewinds the iteration state to superstep zero.
	ResetToInitial() error
}

// Failure describes one failure event as seen by a policy.
type Failure struct {
	// Superstep is the logical iteration during which the failure
	// struck; Tick the monotone attempt counter.
	Superstep, Tick int
	// Workers lists the failed workers, LostPartitions the state
	// partitions they owned.
	Workers, LostPartitions []int
}

// Overhead quantifies what fault-tolerance preparation cost during
// failure-free execution (experiment E6).
type Overhead struct {
	Checkpoints  int
	BytesWritten int64
	// CheckpointTime is the time the iteration was stalled at superstep
	// barriers for checkpointing.
	CheckpointTime time.Duration
	// BarrierTime equals CheckpointTime for synchronous policies; for
	// the async pipeline it is the (much smaller) capture+submit cost
	// the barrier still pays.
	BarrierTime time.Duration
	// CommitTime is the end-to-end capture-to-durable checkpoint cost.
	// For synchronous policies it equals CheckpointTime; for the async
	// pipeline it mostly overlaps the following supersteps.
	CommitTime time.Duration
}

// Policy reacts to the lifecycle of an iterative job.
type Policy interface {
	// PolicyName returns a short identifier ("optimistic", ...).
	PolicyName() string
	// Setup runs before the first superstep (e.g. an initial snapshot).
	Setup(job Job) error
	// AfterSuperstep runs after each committed superstep (e.g. periodic
	// snapshots).
	AfterSuperstep(job Job, superstep int) error
	// OnFailure recovers from f. The driver has already cleared the
	// lost partitions and re-assigned them. It returns the superstep at
	// which execution resumes (current+1 to keep going, an earlier
	// value to rewind).
	OnFailure(job Job, f Failure) (resumeAt int, err error)
	// Overhead reports accumulated fault-tolerance cost.
	Overhead() Overhead
}

// ErrUnrecoverable reports a failure under a policy with no recovery
// mechanism.
var ErrUnrecoverable = errors.New("recovery: failure without a recovery mechanism")

// None aborts on failure — it exists to measure the fault-tolerance-free
// baseline.
type None struct{}

// PolicyName implements Policy.
func (None) PolicyName() string { return "none" }

// Setup implements Policy.
func (None) Setup(Job) error { return nil }

// AfterSuperstep implements Policy.
func (None) AfterSuperstep(Job, int) error { return nil }

// OnFailure implements Policy.
func (None) OnFailure(_ Job, f Failure) (int, error) {
	return 0, fmt.Errorf("%w: workers %v died in superstep %d", ErrUnrecoverable, f.Workers, f.Superstep)
}

// Overhead implements Policy.
func (None) Overhead() Overhead { return Overhead{} }

// Restart rewinds the whole job to superstep zero — what lineage-based
// recovery degenerates to when every partition of iteration i depends
// on all partitions of iteration i-1 (§2.2).
type Restart struct{}

// PolicyName implements Policy.
func (Restart) PolicyName() string { return "restart" }

// Setup implements Policy.
func (Restart) Setup(Job) error { return nil }

// AfterSuperstep implements Policy.
func (Restart) AfterSuperstep(Job, int) error { return nil }

// OnFailure implements Policy.
func (Restart) OnFailure(job Job, _ Failure) (int, error) {
	if err := job.ResetToInitial(); err != nil {
		return 0, fmt.Errorf("recovery: restart: %v", err)
	}
	return 0, nil
}

// Overhead implements Policy.
func (Restart) Overhead() Overhead { return Overhead{} }

// Optimistic is the paper's mechanism: nothing is done during
// failure-free execution; on failure the compensation function restores
// a consistent state and execution simply continues.
type Optimistic struct{}

// PolicyName implements Policy.
func (Optimistic) PolicyName() string { return "optimistic" }

// Setup implements Policy.
func (Optimistic) Setup(Job) error { return nil }

// AfterSuperstep implements Policy — deliberately a no-op: optimal
// failure-free performance is the point.
func (Optimistic) AfterSuperstep(Job, int) error { return nil }

// OnFailure implements Policy: compensate and keep going. A worker that
// died under the compensation stays visible (%w) as the typed failure
// the driver folds into the recovery.
func (Optimistic) OnFailure(job Job, f Failure) (int, error) {
	if err := job.Compensate(f.LostPartitions); err != nil {
		return 0, fmt.Errorf("recovery: compensation failed: %w", err)
	}
	return f.Superstep + 1, nil
}

// Overhead implements Policy.
func (Optimistic) Overhead() Overhead { return Overhead{} }

// Checkpoint is pessimistic rollback recovery: a snapshot of the full
// iteration state every Interval supersteps (plus one before the first
// superstep), restore-and-redo on failure.
type Checkpoint struct {
	// Interval is the superstep period between snapshots (>= 1).
	Interval int
	// Store is the stable storage target.
	Store checkpoint.Store

	ckptTime time.Duration
	buf      bytes.Buffer // reused: Store.Save only borrows its data
}

// NewCheckpoint returns a Checkpoint policy with the given interval and
// store.
func NewCheckpoint(interval int, store checkpoint.Store) *Checkpoint {
	if interval < 1 {
		interval = 1
	}
	return &Checkpoint{Interval: interval, Store: store}
}

// PolicyName implements Policy.
func (c *Checkpoint) PolicyName() string {
	return fmt.Sprintf("checkpoint(k=%d)", c.Interval)
}

// Setup implements Policy: snapshot the initial state so that failures
// before the first periodic checkpoint can roll back to superstep 0
// instead of aborting.
func (c *Checkpoint) Setup(job Job) error {
	return c.snapshot(job, -1)
}

// AfterSuperstep implements Policy.
func (c *Checkpoint) AfterSuperstep(job Job, superstep int) error {
	if (superstep+1)%c.Interval != 0 {
		return nil
	}
	return c.snapshot(job, superstep)
}

func (c *Checkpoint) snapshot(job Job, superstep int) error {
	start := clock.Now()
	c.buf.Reset()
	if err := job.SnapshotTo(&c.buf); err != nil {
		return fmt.Errorf("recovery: snapshotting %s after superstep %d: %w", job.Name(), superstep, err)
	}
	if err := c.Store.Save(job.Name(), superstep, c.buf.Bytes()); err != nil {
		return fmt.Errorf("recovery: saving checkpoint of %s: %v", job.Name(), err)
	}
	c.ckptTime += clock.Since(start)
	return nil
}

// OnFailure implements Policy: restore the latest snapshot and resume
// right after the superstep it captured.
func (c *Checkpoint) OnFailure(job Job, f Failure) (int, error) {
	data, superstep, ok, err := c.Store.Load(job.Name())
	if err != nil {
		return 0, fmt.Errorf("recovery: loading checkpoint of %s: %v", job.Name(), err)
	}
	if !ok {
		return 0, fmt.Errorf("recovery: no checkpoint for %s despite Setup", job.Name())
	}
	if err := job.RestoreFrom(data); err != nil {
		return 0, fmt.Errorf("recovery: restoring %s: %v", job.Name(), err)
	}
	return superstep + 1, nil
}

// Overhead implements Policy. Synchronous checkpointing stalls the
// barrier for the full snapshot cost, so all three times coincide.
func (c *Checkpoint) Overhead() Overhead {
	return Overhead{
		Checkpoints:    c.Store.Saves(),
		BytesWritten:   c.Store.BytesWritten(),
		CheckpointTime: c.ckptTime,
		BarrierTime:    c.ckptTime,
		CommitTime:     c.ckptTime,
	}
}

// ConfinedJob is implemented by jobs that can rebuild lost partitions
// locally from logged accumulators (see the vertexcentric package)
// instead of re-initializing them and re-propagating.
type ConfinedJob interface {
	Job
	// RecoverConfined rebuilds the listed lost partitions from the
	// surviving accumulator replicas, falling back to compensation for
	// partitions whose replica was lost too.
	RecoverConfined(lost []int) error
}

// Confined is confined recovery: lost vertices are rebuilt in place
// from accumulator replicas logged during failure-free execution —
// recovery completes in about one superstep, at the cost of one
// combine per gathered vertex per superstep while nothing fails.
// Sound for programs whose Compute is a monotone fold of combined
// messages (min/max style).
type Confined struct{}

// PolicyName implements Policy.
func (Confined) PolicyName() string { return "confined" }

// Setup implements Policy.
func (Confined) Setup(Job) error { return nil }

// AfterSuperstep implements Policy.
func (Confined) AfterSuperstep(Job, int) error { return nil }

// OnFailure implements Policy.
func (Confined) OnFailure(job Job, f Failure) (int, error) {
	cj, ok := job.(ConfinedJob)
	if !ok {
		return 0, fmt.Errorf("recovery: job %s does not support confined recovery", job.Name())
	}
	if err := cj.RecoverConfined(f.LostPartitions); err != nil {
		return 0, fmt.Errorf("recovery: confined recovery failed: %v", err)
	}
	return f.Superstep + 1, nil
}

// Overhead implements Policy — the accumulator log lives inside the
// job; the policy itself writes nothing.
func (Confined) Overhead() Overhead { return Overhead{} }
