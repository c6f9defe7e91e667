package proc

import (
	"optiflow/internal/failure"
	"optiflow/internal/supervise"
)

// Detector wraps a (possibly nil) user injector so the iteration loop
// also sees the failures the coordinator DETECTED: processes SIGKILLed
// behind its back (chaos), children reaped by the OS, broken
// connections, missed heartbeat windows. Scripted and random schedules
// keep working in proc mode, and a real death the schedule never
// mentioned still enters the recovery path at the next superstep
// boundary.
//
// Detector implements MidStepInjector and RecoveryInjector by
// delegation, so the full failure surface of the in-process injectors
// is available in proc mode.
type Detector struct {
	co    *Coordinator
	inner failure.Injector
}

// DetectFailures builds the union injector. inner may be nil (pure
// detection).
func DetectFailures(co *Coordinator, inner failure.Injector) *Detector {
	return &Detector{co: co, inner: inner}
}

// FailuresAt implements failure.Injector: the union of the inner
// schedule and the coordinator's detected deaths.
func (d *Detector) FailuresAt(superstep, tick int, alive []int) []int {
	var scheduled []int
	if d.inner != nil {
		scheduled = d.inner.FailuresAt(superstep, tick, alive)
	}
	return supervise.Union(scheduled, d.co.DetectedFailures(alive))
}

// MidStepAt implements failure.MidStepInjector by delegation.
func (d *Detector) MidStepAt(superstep, tick int, alive []int) (failure.MidStep, bool) {
	if msi, ok := d.inner.(failure.MidStepInjector); ok {
		return msi.MidStepAt(superstep, tick, alive)
	}
	return failure.MidStep{}, false
}

// FailuresDuringRecovery implements failure.RecoveryInjector: the
// inner schedule's during-recovery deaths plus anything detected while
// the recovery ran.
func (d *Detector) FailuresDuringRecovery(superstep, tick, round int, alive []int) []int {
	var scheduled []int
	if ri, ok := d.inner.(failure.RecoveryInjector); ok {
		scheduled = ri.FailuresDuringRecovery(superstep, tick, round, alive)
	}
	return supervise.Union(scheduled, d.co.DetectedFailures(alive))
}
