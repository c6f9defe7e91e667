package failure

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScheduleGolden pins the victims every seeded random injector
// reports at each attempt against four live workers, over the three
// surfaces the drivers consult: iterate.Loop arms MidStepAt before an
// attempt and asks FailuresAt at its boundary unless a mid-step abort
// struck, and supervise asks FailuresDuringRecovery after each recovery
// round. A refactor of the injectors must leave every line unchanged.
// Regenerate with OPTIFLOW_UPDATE_GOLDEN=1 only for a deliberate
// schedule change.
func TestScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 7, 42, 20150531} {
		for _, max := range []int{0, 3} {
			for _, p := range []float64{0.1, 0.3, 1.0} {
				fmt.Fprintf(&b, "random seed=%d p=%g max=%d:%s\n", seed, p, max,
					schedule(NewChaos(seed).WithProbabilities(p, 0, 0).WithMaxFailures(max)))
			}
			fmt.Fprintf(&b, "chaos seed=%d max=%d:%s\n", seed, max,
				schedule(NewChaos(seed).WithMaxFailures(max)))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "schedules.golden")
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with OPTIFLOW_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("schedule line %d changed:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule has %d lines, golden %d", len(gl), len(wl))
	}
}

// schedule runs 24 attempts of supersteps 0..23 against workers 0..3
// and renders what struck at each: "t:mid[w]@r" for a mid-step abort
// after r records, "t:at[w]" for a boundary failure, and
// "t:during<round>[w]" for each failure folded into the recovery that
// followed (at most eight rounds, the supervisor's default bound).
func schedule(inj Injector) string {
	var b strings.Builder
	for tick := range 24 {
		var victims []int
		if msi, ok := inj.(MidStepInjector); ok {
			if ms, ok := msi.MidStepAt(tick, tick, alive); ok {
				fmt.Fprintf(&b, " %d:mid%v@%d", tick, ms.Workers, ms.AfterRecords)
				victims = ms.Workers
			}
		}
		if victims == nil {
			if ws := inj.FailuresAt(tick, tick, alive); len(ws) > 0 {
				fmt.Fprintf(&b, " %d:at%v", tick, ws)
				victims = ws
			}
		}
		ri, ok := inj.(RecoveryInjector)
		if len(victims) == 0 || !ok {
			continue
		}
		for round := range 8 {
			ws := ri.FailuresDuringRecovery(tick, tick, round, alive)
			if len(ws) == 0 {
				break
			}
			fmt.Fprintf(&b, " %d:during%d%v", tick, round, ws)
		}
	}
	return b.String()
}
