// Package failure injects worker failures into running iterations —
// the programmatic equivalent of the demo GUI's "choose which
// partitions to fail and in which iterations" buttons (§3.1).
package failure

import "sort"

// Injector decides which live workers fail while a superstep executes.
type Injector interface {
	// FailuresAt returns the workers (a subset of alive) that fail
	// during the given superstep attempt. superstep is the logical
	// iteration number; tick counts attempts monotonically, so
	// re-executed supersteps after a rollback present the same
	// superstep with a larger tick. Failures reported here strike at
	// the superstep boundary: the attempt's dataflow has already
	// committed when the workers die.
	FailuresAt(superstep, tick int, alive []int) []int
}

// MidStep describes a failure that strikes while a superstep's dataflow
// is still executing: the listed workers die once the attempt has
// processed AfterRecords records, aborting the plan mid-flight instead
// of waiting for the superstep barrier.
type MidStep struct {
	// Workers are the workers that die.
	Workers []int
	// AfterRecords is how many records the attempt processes before the
	// crash (0 = the very first record). It is a timing knob, not an
	// exact cut: the abort propagates asynchronously through the
	// engine's tasks.
	AfterRecords int64
}

// MidStepInjector is implemented by injectors that can strike in the
// middle of a superstep — the demo attendee pressing the failure button
// while the iteration bar is still filling (§3.1). The iteration driver
// consults it before each attempt and arms the execution engine; if the
// attempt finishes before the threshold, the failure lands at the
// superstep boundary instead (the workers still die).
type MidStepInjector interface {
	Injector
	// MidStepAt returns the mid-superstep failure scheduled for the
	// given attempt, with workers already filtered to the alive set.
	// ok is false when nothing is scheduled (or every scheduled worker
	// is already dead).
	MidStepAt(superstep, tick int, alive []int) (ms MidStep, ok bool)
}

// RecoveryInjector is implemented by injectors that can strike while a
// recovery round itself is in flight — the failure-during-restore case
// the paper's demo never shows. The recovery supervisor consults it
// after each restore/compensation attempt; reported deaths are folded
// into the current recovery round as a fresh failure. round counts the
// folds within one recovery (0 = the original failure's round), letting
// scripted schedules target "the second failure, mid-compensation".
type RecoveryInjector interface {
	Injector
	// FailuresDuringRecovery returns the workers (a subset of alive)
	// that die while recovery for the given superstep attempt runs.
	FailuresDuringRecovery(superstep, tick, round int, alive []int) []int
}

// None is an Injector that never fails anything.
type None struct{}

// FailuresAt implements Injector.
func (None) FailuresAt(int, int, []int) []int { return nil }

// Scripted fails specific workers at specific supersteps, each plan
// entry at most once — the demo attendee pressing the failure button.
// Entries can strike between supersteps (At) or mid-superstep
// (AtMidStep); Scripted implements MidStepInjector.
type Scripted struct {
	plan     map[int][]int   // superstep -> workers, boundary failures
	fired    map[int]bool    // consumed boundary entries
	midPlan  map[int]MidStep // superstep -> mid-superstep failure
	midFired map[int]bool    // consumed mid-step entries
	recPlan  map[int][]int   // superstep -> workers dying during recovery
	recFired map[int]bool    // consumed during-recovery entries
}

// NewScripted builds a scripted injector from a superstep -> workers
// plan. The map is copied.
func NewScripted(plan map[int][]int) *Scripted {
	cp := make(map[int][]int, len(plan))
	for s, ws := range plan {
		cp[s] = append([]int(nil), ws...)
	}
	return &Scripted{
		plan:     cp,
		fired:    make(map[int]bool),
		midPlan:  make(map[int]MidStep),
		midFired: make(map[int]bool),
		recPlan:  make(map[int][]int),
		recFired: make(map[int]bool),
	}
}

// At adds a failure of worker w at the given superstep and returns the
// injector for chaining.
func (s *Scripted) At(superstep, worker int) *Scripted {
	s.plan[superstep] = append(s.plan[superstep], worker)
	return s
}

// AtMidStep schedules the listed workers to die while the given
// superstep's dataflow is executing, after the attempt has processed
// afterRecords records. Multiple calls for the same superstep merge
// their workers; the last afterRecords wins.
func (s *Scripted) AtMidStep(superstep int, afterRecords int64, workers ...int) *Scripted {
	ms := s.midPlan[superstep]
	ms.Workers = append(ms.Workers, workers...)
	ms.AfterRecords = afterRecords
	s.midPlan[superstep] = ms
	return s
}

// liveSubset returns the scheduled workers that are in alive, sorted.
func liveSubset(scheduled, alive []int) []int {
	liveSet := make(map[int]bool, len(alive))
	for _, w := range alive {
		liveSet[w] = true
	}
	var out []int
	for _, w := range scheduled {
		if liveSet[w] {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// FailuresAt implements Injector. Scheduled workers that are already
// dead are skipped, and a plan entry is only consumed when at least one
// failure is actually emitted: an entry whose workers all happen to be
// dead at this attempt stays armed for a later attempt of the same
// superstep (after a rollback) instead of being silently swallowed.
func (s *Scripted) FailuresAt(superstep, _ int, alive []int) []int {
	if s.fired[superstep] {
		return nil
	}
	scheduled := s.plan[superstep]
	if len(scheduled) == 0 {
		return nil
	}
	out := liveSubset(scheduled, alive)
	if len(out) == 0 {
		return nil
	}
	s.fired[superstep] = true
	return out
}

// AtDuringRecovery schedules the listed workers to die while the
// recovery for a failure at the given superstep is in flight — e.g. a
// second machine crashing mid-compensation. The entry fires (once) the
// first time the supervisor runs a recovery round for that superstep.
func (s *Scripted) AtDuringRecovery(superstep int, workers ...int) *Scripted {
	s.recPlan[superstep] = append(s.recPlan[superstep], workers...)
	return s
}

// FailuresDuringRecovery implements RecoveryInjector, with the same
// consume-only-when-emitted rule as FailuresAt.
func (s *Scripted) FailuresDuringRecovery(superstep, _, _ int, alive []int) []int {
	if s.recFired[superstep] {
		return nil
	}
	scheduled := s.recPlan[superstep]
	if len(scheduled) == 0 {
		return nil
	}
	out := liveSubset(scheduled, alive)
	if len(out) == 0 {
		return nil
	}
	s.recFired[superstep] = true
	return out
}

// MidStepAt implements MidStepInjector, with the same
// consume-only-when-emitted rule as FailuresAt.
func (s *Scripted) MidStepAt(superstep, _ int, alive []int) (MidStep, bool) {
	if s.midFired[superstep] {
		return MidStep{}, false
	}
	ms, ok := s.midPlan[superstep]
	if !ok {
		return MidStep{}, false
	}
	out := liveSubset(ms.Workers, alive)
	if len(out) == 0 {
		return MidStep{}, false
	}
	s.midFired[superstep] = true
	return MidStep{Workers: out, AfterRecords: ms.AfterRecords}, true
}
