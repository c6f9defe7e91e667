package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/algo/sssp"
	"optiflow/internal/failure"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
	"optiflow/internal/vertexcentric"
)

// Confined is the E11 ablation: optimistic (compensation-based)
// recovery versus confined recovery with accumulator replicas, on
// single-source shortest paths. Confined recovery repairs a lost
// partition by replaying one folded message per lost vertex — the
// repair superstep touches only the lost vertices — but pays a combine
// per delivered message during failure-free execution, where optimistic
// recovery pays nothing. All four rows run sssp.Program on the
// vertex-centric engine, so their repair touches count the same thing.
func (r *Runner) Confined() (*Report, error) {
	side := 40
	if r.cfg.Quick {
		side = 16
	}
	g := gen.Grid(side, side)
	truth := ref.ShortestPaths(g, 0)
	failAt := side // mid-run: the distance wave is halfway through

	type outcome struct {
		repairTouched int64
		attempts      int
		elapsed       time.Duration
		correct       bool
	}
	run := func(policy recovery.Policy, accLog bool, inject bool) (outcome, error) {
		var inj failure.Injector
		if inject {
			inj = failure.NewScripted(nil).At(failAt, 1)
		}
		res, err := vertexcentric.Run(sssp.Program(g, 0), g, vertexcentric.Options{
			Parallelism:    r.cfg.Parallelism,
			Policy:         policy,
			Injector:       inj,
			AccumulatorLog: accLog,
		})
		if err != nil {
			return outcome{}, err
		}
		o := outcome{attempts: res.Ticks, elapsed: res.Elapsed, correct: true}
		for v, want := range truth {
			got := res.States[v]
			if math.IsInf(want, 1) && math.IsInf(got, 1) {
				continue
			}
			if math.Abs(got-want) > 1e-9 {
				o.correct = false
				break
			}
		}
		for _, s := range res.Samples {
			if s.Tick == failAt+1 {
				o.repairTouched = s.Stats.Updates
			}
		}
		return o, nil
	}

	baseline, err := run(recovery.Optimistic{}, false, false)
	if err != nil {
		return nil, err
	}
	baselineLogged, err := run(recovery.Optimistic{}, true, false)
	if err != nil {
		return nil, err
	}
	optimistic, err := run(recovery.Optimistic{}, false, true)
	if err != nil {
		return nil, err
	}
	confined, err := run(recovery.Confined{}, true, true)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload: SSSP from corner 0 on a %dx%d grid; worker 1 fails at superstep %d\n\n", side, side, failAt+1)
	fmt.Fprintf(&b, "%-36s  %9s  %14s  %12s  %8s\n", "run", "attempts", "repair touches", "wall time", "correct")
	fmt.Fprintf(&b, "%-36s  %9d  %14s  %12v  %8v\n", "failure-free, no log", baseline.attempts, "-", baseline.elapsed.Round(time.Microsecond), baseline.correct)
	fmt.Fprintf(&b, "%-36s  %9d  %14s  %12v  %8v\n", "failure-free, accumulator log", baselineLogged.attempts, "-", baselineLogged.elapsed.Round(time.Microsecond), baselineLogged.correct)
	fmt.Fprintf(&b, "%-36s  %9d  %14d  %12v  %8v\n", "optimistic (compensation)", optimistic.attempts, optimistic.repairTouched, optimistic.elapsed.Round(time.Microsecond), optimistic.correct)
	fmt.Fprintf(&b, "%-36s  %9d  %14d  %12v  %8v\n", "confined (accumulator replay)", confined.attempts, confined.repairTouched, confined.elapsed.Round(time.Microsecond), confined.correct)
	b.WriteString("\n\"repair touches\" counts the vertices gathered in the superstep right after recovery:\n")
	b.WriteString("optimistic compensation floods lost-vertex init values and neighbor re-sends; confined\n")
	b.WriteString("recovery replays exactly one folded message per lost vertex.\n")

	checks := []Check{
		check("both recoveries converge to Dijkstra's distances",
			optimistic.correct && confined.correct, ""),
		check("confined repair touches only the lost vertices (fewer than compensation)",
			confined.repairTouched < optimistic.repairTouched,
			"%d vs %d vertices", confined.repairTouched, optimistic.repairTouched),
		check("confined recovery needs no more attempts than compensation",
			confined.attempts <= optimistic.attempts,
			"%d vs %d attempts", confined.attempts, optimistic.attempts),
		check("accumulator logging leaves the failure-free result untouched",
			baselineLogged.correct && baselineLogged.attempts == baseline.attempts,
			"%d vs %d attempts", baselineLogged.attempts, baseline.attempts),
	}
	return &Report{
		ID: "E11", Figure: "extension: confined recovery (CoRAL-style)",
		Title:  "Optimistic vs confined recovery on SSSP",
		Text:   b.String(),
		Checks: checks,
	}, nil
}
