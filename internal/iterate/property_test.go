package iterate

import (
	"testing"
	"testing/quick"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/failure"
	"optiflow/internal/recovery"
)

// Property: under any random failure schedule, every recovering policy
// drives the loop to exactly the target number of committed supersteps,
// and the restored counter state matches that count (the counter job's
// invariant: state == committed supersteps).
func TestPoliciesReachTargetUnderRandomFailures(t *testing.T) {
	f := func(seed int64, targetRaw, probRaw uint8) bool {
		target := int(targetRaw%12) + 3
		prob := float64(probRaw%50) / 100.0

		policies := []func() recovery.Policy{
			func() recovery.Policy { return recovery.Optimistic{} },
			func() recovery.Policy { return recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()) },
			func() recovery.Policy { return recovery.Restart{} },
		}
		for _, mk := range policies {
			job := &counterJob{}
			l := newLoop(job, target)
			l.Policy = mk()
			l.Injector = failure.NewChaos(seed).WithProbabilities(prob, 0, 0).WithMaxFailures(4)
			l.MaxTicks = 10000
			res, err := l.Run()
			if err != nil {
				return false
			}
			if res.Supersteps != target {
				return false
			}
			switch l.Policy.(type) {
			case recovery.Restart, *recovery.Checkpoint:
				// Counter state is rolled back/reset exactly in sync with
				// the superstep counter.
				if job.counter != target {
					return false
				}
			}
			if res.Ticks < target || res.Ticks > target+4*(target+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sample stream is well-formed for any schedule —
// monotone ticks, superstep never above the committed count, failures
// annotated consistently.
func TestSampleStreamWellFormed(t *testing.T) {
	f := func(seed int64, probRaw uint8) bool {
		prob := float64(probRaw%60) / 100.0
		job := &counterJob{}
		l := newLoop(job, 8)
		l.Policy = recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
		l.Injector = failure.NewChaos(seed).WithProbabilities(prob, 0, 0).WithMaxFailures(5)
		l.Cluster = cluster.New(3, 4)
		res, err := l.Run()
		if err != nil {
			return false
		}
		prevTick := -1
		for _, s := range res.Samples {
			if s.Tick != prevTick+1 {
				return false
			}
			prevTick = s.Tick
			if s.Superstep < 0 || s.Superstep > 8 {
				return false
			}
			if s.Failed() != (len(s.LostPartitions) > 0) {
				return false
			}
			if s.Failed() && s.Recovery == "" {
				return false
			}
		}
		return len(res.Samples) == res.Ticks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
