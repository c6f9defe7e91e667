package failure

import (
	"reflect"
	"testing"
)

var alive = []int{0, 1, 2, 3}

func TestNoneNeverFails(t *testing.T) {
	var inj None
	for i := 0; i < 100; i++ {
		if got := inj.FailuresAt(i, i, alive); got != nil {
			t.Fatalf("None failed workers %v", got)
		}
	}
}

func TestScriptedFiresOncePerSuperstep(t *testing.T) {
	inj := NewScripted(nil).At(3, 1).At(3, 2).At(5, 0)
	if got := inj.FailuresAt(0, 0, alive); got != nil {
		t.Fatalf("unexpected failure %v", got)
	}
	if got := inj.FailuresAt(3, 3, alive); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("superstep 3: %v", got)
	}
	// Re-execution of superstep 3 (after rollback) must not re-fire.
	if got := inj.FailuresAt(3, 9, alive); got != nil {
		t.Fatalf("refired: %v", got)
	}
	if got := inj.FailuresAt(5, 10, alive); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("superstep 5: %v", got)
	}
}

func TestScriptedSkipsDeadWorkers(t *testing.T) {
	inj := NewScripted(map[int][]int{2: {7, 1}})
	if got := inj.FailuresAt(2, 2, []int{0, 1}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("got %v, want [1]", got)
	}
}

func TestScriptedCopiesPlan(t *testing.T) {
	plan := map[int][]int{1: {0}}
	inj := NewScripted(plan)
	plan[1][0] = 99
	if got := inj.FailuresAt(1, 1, alive); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("plan aliased: %v", got)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		inj := NewChaos(seed).WithProbabilities(0.5, 0, 0)
		var fired []int
		for i := 0; i < 50; i++ {
			if ws := inj.FailuresAt(i, i, alive); len(ws) > 0 {
				fired = append(fired, i*10+ws[0])
			}
		}
		return fired
	}
	if !reflect.DeepEqual(run(7), run(7)) {
		t.Fatal("same seed differs")
	}
	if reflect.DeepEqual(run(7), run(8)) {
		t.Fatal("different seeds agree exactly (suspicious)")
	}
}

func TestRandomRespectsMaxFailures(t *testing.T) {
	inj := NewChaos(1).WithProbabilities(1.0, 0, 0).WithMaxFailures(3)
	n := 0
	for i := 0; i < 100; i++ {
		n += len(inj.FailuresAt(i, i, alive))
	}
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
}

func TestRandomPicksOnlyLiveWorkers(t *testing.T) {
	inj := NewChaos(2).WithProbabilities(1.0, 0, 0)
	live := []int{5}
	for i := 0; i < 10; i++ {
		ws := inj.FailuresAt(i, i, live)
		if len(ws) != 1 || ws[0] != 5 {
			t.Fatalf("picked %v from %v", ws, live)
		}
	}
	if got := inj.FailuresAt(0, 0, nil); got != nil {
		t.Fatalf("empty cluster failed %v", got)
	}
}

func TestScriptedKeepsEntryArmedWhenAllScheduledDead(t *testing.T) {
	// Regression: an entry whose scheduled workers all happen to be dead
	// at this attempt must stay armed for a later attempt of the same
	// superstep (after a rollback), not be consumed silently.
	inj := NewScripted(nil).At(3, 1)
	if got := inj.FailuresAt(3, 0, []int{0, 2}); got != nil {
		t.Fatalf("fired %v with the scheduled worker dead", got)
	}
	// Re-executed attempt of superstep 3: worker 1 is back in the alive
	// set (a replacement reused the ID in this scenario) — the entry
	// must still fire.
	if got := inj.FailuresAt(3, 1, alive); len(got) != 1 || got[0] != 1 {
		t.Fatalf("re-armed entry fired %v", got)
	}
	// And only once.
	if got := inj.FailuresAt(3, 2, alive); got != nil {
		t.Fatalf("entry fired twice: %v", got)
	}
}

func TestScriptedPartialLiveSubsetConsumesEntry(t *testing.T) {
	inj := NewScripted(map[int][]int{2: {0, 1}})
	if got := inj.FailuresAt(2, 0, []int{1, 2, 3}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("fired %v", got)
	}
	// At least one failure was emitted, so the entry is consumed.
	if got := inj.FailuresAt(2, 1, alive); got != nil {
		t.Fatalf("consumed entry fired again: %v", got)
	}
}

func TestScriptedMidStepFiresOnce(t *testing.T) {
	inj := NewScripted(nil).AtMidStep(2, 7, 1, 3)
	if _, ok := inj.MidStepAt(1, 0, alive); ok {
		t.Fatal("fired at the wrong superstep")
	}
	ms, ok := inj.MidStepAt(2, 2, alive)
	if !ok || ms.AfterRecords != 7 {
		t.Fatalf("ms = %+v, ok = %v", ms, ok)
	}
	if !reflect.DeepEqual(ms.Workers, []int{1, 3}) {
		t.Fatalf("workers = %v", ms.Workers)
	}
	if _, ok := inj.MidStepAt(2, 3, alive); ok {
		t.Fatal("mid-step entry fired twice")
	}
}

func TestScriptedMidStepSkipsDeadAndStaysArmed(t *testing.T) {
	inj := NewScripted(nil).AtMidStep(1, 0, 2)
	if _, ok := inj.MidStepAt(1, 0, []int{0, 1, 3}); ok {
		t.Fatal("fired with the scheduled worker dead")
	}
	// Still armed for a later attempt where the worker is alive.
	ms, ok := inj.MidStepAt(1, 1, alive)
	if !ok || len(ms.Workers) != 1 || ms.Workers[0] != 2 {
		t.Fatalf("ms = %+v, ok = %v", ms, ok)
	}
}

func TestScriptedMidStepMergesWorkers(t *testing.T) {
	inj := NewScripted(nil).AtMidStep(0, 5, 1).AtMidStep(0, 9, 2)
	ms, ok := inj.MidStepAt(0, 0, alive)
	if !ok {
		t.Fatal("did not fire")
	}
	if !reflect.DeepEqual(ms.Workers, []int{1, 2}) {
		t.Fatalf("workers = %v", ms.Workers)
	}
	// The last afterRecords wins.
	if ms.AfterRecords != 9 {
		t.Fatalf("afterRecords = %d", ms.AfterRecords)
	}
}

func TestScriptedBoundaryAndMidStepAreIndependent(t *testing.T) {
	inj := NewScripted(nil).At(2, 0).AtMidStep(2, 3, 1)
	ms, ok := inj.MidStepAt(2, 0, alive)
	if !ok || ms.Workers[0] != 1 {
		t.Fatalf("mid-step = %+v, ok = %v", ms, ok)
	}
	if got := inj.FailuresAt(2, 0, alive); len(got) != 1 || got[0] != 0 {
		t.Fatalf("boundary = %v", got)
	}
}

func TestScriptedDuringRecoveryFiresOnce(t *testing.T) {
	inj := NewScripted(nil).AtDuringRecovery(3, 2)
	if got := inj.FailuresDuringRecovery(1, 1, 0, alive); got != nil {
		t.Fatalf("unexpected recovery failure %v", got)
	}
	if got := inj.FailuresDuringRecovery(3, 4, 0, alive); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("superstep 3: %v", got)
	}
	// The folded round must not re-fire the entry.
	if got := inj.FailuresDuringRecovery(3, 4, 1, alive); got != nil {
		t.Fatalf("refired: %v", got)
	}
}

func TestScriptedDuringRecoveryStaysArmedWhenAllDead(t *testing.T) {
	inj := NewScripted(nil).AtDuringRecovery(2, 9)
	if got := inj.FailuresDuringRecovery(2, 2, 0, alive); got != nil {
		t.Fatalf("dead worker fired: %v", got)
	}
	if got := inj.FailuresDuringRecovery(2, 5, 0, append(alive, 9)); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("stayed-armed entry = %v", got)
	}
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	type event struct {
		kind      string
		superstep int
		workers   []int
	}
	run := func() []event {
		c := NewChaos(99).WithProbabilities(0.3, 0.25, 0.4)
		var out []event
		for i := 0; i < 30; i++ {
			if ms, ok := c.MidStepAt(i, i, alive); ok {
				out = append(out, event{"mid", i, ms.Workers})
			}
			if ws := c.FailuresAt(i, i, alive); ws != nil {
				out = append(out, event{"boundary", i, ws})
			}
			if ws := c.FailuresDuringRecovery(i, i, 0, alive); ws != nil {
				out = append(out, event{"during", i, ws})
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("chaos injected nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("not deterministic:\n%v\n%v", a, b)
	}
}

func TestChaosSurfacesAreIndependent(t *testing.T) {
	// Disabling one surface must not shift another's schedule: each
	// surface draws from its own derived rng.
	all := NewChaos(5).WithProbabilities(0.3, 0.5, 0.5)
	boundaryOnly := NewChaos(5).WithProbabilities(0.3, 0, 0)
	for i := 0; i < 50; i++ {
		all.MidStepAt(i, i, alive)
		all.FailuresDuringRecovery(i, i, 0, alive)
		a := all.FailuresAt(i, i, alive)
		b := boundaryOnly.FailuresAt(i, i, alive)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("attempt %d: boundary schedule diverged (%v vs %v)", i, a, b)
		}
	}
}

func TestChaosRespectsBudgetAndUntil(t *testing.T) {
	c := NewChaos(3).WithProbabilities(0.9, 0.9, 0.9).WithMaxFailures(4)
	for i := 0; i < 100; i++ {
		c.FailuresAt(i, i, alive)
		c.MidStepAt(i, i, alive)
		c.FailuresDuringRecovery(i, i, 0, alive)
	}
	if c.Injected() != 4 {
		t.Fatalf("injected = %d, budget 4", c.Injected())
	}

	bounded := NewChaos(3).WithProbabilities(1, 1, 1).Until(2)
	for i := 0; i < 10; i++ {
		bounded.FailuresAt(i, i, alive)
	}
	// Supersteps 0..2 may fail; 3.. must be quiet.
	if bounded.Injected() != 3 {
		t.Fatalf("injected = %d, want 3 (supersteps 0-2)", bounded.Injected())
	}
}

func TestChaosDuringRecoverySparesLastWorker(t *testing.T) {
	c := NewChaos(1).WithProbabilities(1, 1, 1)
	if got := c.FailuresDuringRecovery(0, 0, 0, []int{7}); got != nil {
		t.Fatalf("killed the last worker: %v", got)
	}
}
