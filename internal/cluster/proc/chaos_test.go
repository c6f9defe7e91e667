package proc

import (
	"fmt"
	"strings"
	"testing"

	"optiflow/internal/failure"
)

// roundCapped is failure.Chaos as the proc injector consults it: no
// during-recovery strike after the third folded round.
type roundCapped struct{ *failure.Chaos }

func (r roundCapped) FailuresDuringRecovery(superstep, tick, round int, alive []int) []int {
	if round > 2 {
		return nil
	}
	return r.Chaos.FailuresDuringRecovery(superstep, tick, round, alive)
}

// TestProcChaosScheduleMatchesFailureChaos holds the proc injector's
// victims, attempt by attempt, to failure.Chaos's for the same seed,
// probabilities and budget with MaxAfterRecords 0 (the proc job strikes
// mid-step at the first record) and the round guard above. The
// coordinator hosts no process, so no kill is delivered.
func TestProcChaosScheduleMatchesFailureChaos(t *testing.T) {
	probs := [][3]float64{{0.2, 0.15, 0.25}, {0.9, 0.1, 0.2}, {0.5, 0.05, 0.1}, {1, 1, 1}}
	for _, seed := range []int64{1, 7, 42} {
		for _, p := range probs {
			for _, max := range []int{0, 3} {
				ref := failure.NewChaos(seed).WithProbabilities(p[0], p[1], p[2]).WithMaxFailures(max)
				ref.MaxAfterRecords = 0
				chaos := NewChaos(&Coordinator{}, seed).WithProbabilities(p[0], p[1], p[2]).WithMaxFailures(max)
				want, got := chaosSchedule(roundCapped{ref}), chaosSchedule(chaos)
				if got != want {
					t.Fatalf("seed %d p %v max %d:\n got%s\nwant%s", seed, p, max, got, want)
				}
				if chaos.Killed() != 0 {
					t.Fatalf("seed %d: %d kills delivered without a process", seed, chaos.Killed())
				}
			}
		}
	}
}

// chaosSchedule runs 40 attempts against workers 0..3 the way
// iterate.Loop and supervise consult an injector and renders what
// struck at each.
func chaosSchedule(inj failure.RecoveryInjector) string {
	alive := []int{0, 1, 2, 3}
	var b strings.Builder
	for tick := range 40 {
		var victims []int
		if ms, ok := inj.(failure.MidStepInjector).MidStepAt(tick, tick, alive); ok {
			fmt.Fprintf(&b, " %d:mid%v@%d", tick, ms.Workers, ms.AfterRecords)
			victims = ms.Workers
		} else if ws := inj.FailuresAt(tick, tick, alive); len(ws) > 0 {
			fmt.Fprintf(&b, " %d:at%v", tick, ws)
			victims = ws
		}
		for round := 0; len(victims) > 0 && round < 8; round++ {
			victims = inj.FailuresDuringRecovery(tick, tick, round, alive)
			if len(victims) > 0 {
				fmt.Fprintf(&b, " %d:during%d%v", tick, round, victims)
			}
		}
	}
	return b.String()
}
