// Mid-superstep fault injection: the exec-engine half of the demo's
// "kill a worker while the iteration is running" button (§3.1). The
// iteration driver translates an injected worker failure into a
// FaultInjection and hands it to Prepared.RunWithFault; once the
// running plan has processed the configured number of records, the run
// tears down through the same cancellation machinery used for UDF
// panics — partial batches are recycled to the pool — and returns a
// typed *WorkerFailure instead of stats, so the driver can abort the
// attempt, clear the lost partitions and consult the recovery policy.
package exec

import "fmt"

// FaultInjection schedules a simulated worker crash for one plan
// execution. The engine itself has no notion of cluster workers — it
// runs partition-indexed tasks — so the caller (the iteration driver)
// resolves which partitions the dying workers own and passes both: the
// worker IDs travel through opaquely and come back in the WorkerFailure
// so the driver can update cluster membership.
type FaultInjection struct {
	// Workers are the cluster workers that die, engine-opaque.
	Workers []int
	// Partitions are the task/partition indices owned by those workers
	// — the state the crash destroys.
	Partitions []int
	// AfterRecords is how many records the plan may process before the
	// crash strikes: the run aborts on the first record past this
	// count. Zero means the first processed record triggers it.
	// "Processed" counts operator emissions plan-wide (the same events
	// Stats.NodeOutputs counts) — in ColEngine.Run, edge-expansion
	// messages, a source row at a time — so the timing scales with
	// actual work done, not wall time. If the plan finishes before the threshold is
	// reached, the run completes normally — the caller decides what a
	// failure that outlived the superstep means (typically: it strikes
	// at the superstep boundary instead).
	AfterRecords int64
}

// WorkerFailure is the typed error a faulted run returns: the plan was
// torn down mid-superstep because the listed workers died. The partial
// superstep's effects on exchange channels are discarded (batches are
// recycled, never observable — a failing run returns no Stats), so the
// attempt as a whole is void except for whatever in-place state writes
// the plan's UDFs performed, which the owning job must reconcile.
type WorkerFailure struct {
	// Workers and Partitions echo the FaultInjection.
	Workers    []int
	Partitions []int
	// Processed is how many records the plan had processed when the
	// crash struck.
	Processed int64
}

// Error implements error.
func (e *WorkerFailure) Error() string {
	return fmt.Sprintf("exec: worker(s) %v died mid-superstep after %d processed records (partitions %v lost)",
		e.Workers, e.Processed, e.Partitions)
}

// recordProcessed advances the plan-wide processed-record counter and
// triggers the scheduled fault once the threshold is crossed. fail is
// once-guarded, so concurrent crossings collapse into one failure.
func (r *run) recordProcessed() {
	f := r.fault
	if f == nil {
		return
	}
	if n := r.processed.Add(1); n > f.AfterRecords {
		r.fail(&WorkerFailure{
			Workers:    f.Workers,
			Partitions: f.Partitions,
			Processed:  n - 1,
		})
	}
}
