package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
)

// ChaosSoak runs the seeded chaos soak: random boundary failures,
// mid-superstep aborts and failures-during-recovery (failure.Chaos)
// against a supervised cluster with one bounded spare and a flaky
// acquisition path, for every recovery policy and a fixed seed matrix.
// The assertion is the paper's bottom line under adversarial
// conditions: whatever the policy and however the chaos composes, the
// supervised run must still converge to ground truth — escalating
// through the policy ladder when the configured policy cannot cope.
func (r *Runner) ChaosSoak() (*Report, error) {
	seeds := []int64{3, 11, 27}
	if r.cfg.Quick {
		seeds = seeds[:2]
	}

	policies := []string{"optimistic", "checkpoint", "restart", "none"}

	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: boundary + mid-step + during-recovery failures (p=0.35/0.25/0.50, <=4 per run),\n")
	fmt.Fprintf(&b, "1 spare worker, flaky acquisition (every other attempt times out), failure budget 2\n\n")
	fmt.Fprintf(&b, "%-10s  %-12s  %6s  %9s  %9s  %8s  %12s  %8s\n",
		"workload", "policy", "seed", "failures", "retries", "escal.", "attempts", "correct")

	var checks []Check
	var csv strings.Builder
	csv.WriteString("workload,policy,seed,failures,retries,escalations,attempts,supersteps,correct\n")
	totalFailures, totalRetries, totalEscalations := 0, 0, 0
	perCombo := map[string]int{} // workload/policy -> injected failures across seeds

	// CC workload: multi-component random graph, slow enough to leave
	// the chaos several supersteps of opportunity.
	ccGraph := gen.Components(3, 40, 0.08, r.cfg.Seed)
	ccTruth := ref.ConnectedComponents(ccGraph)
	// PageRank workload: small Twitter-like graph iterated to a tight
	// epsilon so late chaos still has supersteps to corrupt.
	prGraph := gen.Twitter(300, r.cfg.Seed)
	prTruth, _ := ref.PageRank(prGraph, ref.PageRankOptions{})

	for _, policyName := range policies {
		for _, seed := range seeds {
			for _, workload := range []string{"cc", "pagerank"} {
				chaos := failure.NewChaos(seed).
					WithProbabilities(0.35, 0.25, 0.50).
					WithMaxFailures(4).
					Until(5)
				var pol recovery.Policy
				switch policyName {
				case "optimistic":
					pol = recovery.Optimistic{}
				case "checkpoint":
					pol = recovery.NewCheckpoint(2, checkpoint.NewMemoryStore())
				case "restart":
					pol = recovery.Restart{}
				case "none":
					pol = recovery.None{}
				}
				// Every odd acquisition attempt times out (the sequence
				// starts at 1), so the first replacement of each run
				// exercises the supervisor's retry/backoff path
				// deterministically.
				hook := func(seq, worker int) (time.Duration, error) {
					if seq%2 == 1 {
						return 2 * time.Millisecond, errors.New("provisioning timeout")
					}
					return time.Millisecond, nil
				}
				sup := &supervise.Config{
					Spares:        1,
					FailureBudget: 2,
					AcquireHook:   hook,
				}

				var (
					res     *iterate.Result
					correct bool
					detail  string
					err     error
				)
				cl, stopCluster, err := r.provisionCluster(sup)
				if err != nil {
					return nil, fmt.Errorf("experiments: chaos %s/%s seed %d: provisioning cluster: %v",
						workload, policyName, seed, err)
				}
				if workload == "cc" {
					out, runErr := cc.Run(ccGraph, cc.Options{
						Parallelism: r.cfg.Parallelism,
						Policy:      pol,
						Injector:    chaos,
						Supervise:   sup,
						Cluster:     cl,
					})
					if runErr != nil {
						err = runErr
					} else {
						res = out.Result
						correct = componentsMatch(out.Components, ccTruth)
						detail = "component labels"
					}
				} else {
					out, runErr := pagerank.Run(prGraph, pagerank.Options{
						Parallelism:   r.cfg.Parallelism,
						MaxIterations: 200,
						Epsilon:       1e-9,
						Policy:        pol,
						Injector:      chaos,
						Supervise:     sup,
						Cluster:       cl,
					})
					if runErr != nil {
						err = runErr
					} else {
						res = out.Result
						l1 := ref.L1(out.Ranks, prTruth)
						correct = l1 < 1e-6
						detail = fmt.Sprintf("L1 to truth %.2e", l1)
					}
				}
				stopCluster()
				if err != nil {
					return nil, fmt.Errorf("experiments: chaos %s/%s seed %d: %v", workload, policyName, seed, err)
				}

				totalFailures += res.Failures
				totalRetries += res.TotalRetries
				totalEscalations += res.TotalEscalations
				perCombo[workload+"/"+policyName] += chaos.Injected()
				fmt.Fprintf(&b, "%-10s  %-12s  %6d  %9d  %9d  %8d  %12d  %8v\n",
					workload, policyName, seed, res.Failures, res.TotalRetries, res.TotalEscalations, res.Ticks, correct)
				fmt.Fprintf(&csv, "%s,%s,%d,%d,%d,%d,%d,%d,%v\n",
					workload, policyName, seed, res.Failures, res.TotalRetries, res.TotalEscalations, res.Ticks, res.Supersteps, correct)
				checks = append(checks, check(
					fmt.Sprintf("%s under %s survives chaos seed %d and converges to ground truth", workload, policyName, seed),
					correct, "%s", detail))
			}
		}
	}

	fmt.Fprintf(&b, "\ntotals: %d injected failures, %d acquire retries, %d escalations\n",
		totalFailures, totalRetries, totalEscalations)

	checks = append(checks, check(
		"the chaos schedule injected failures into every workload x policy combination",
		allPositive(perCombo), "injections per combo: %v", perCombo))
	checks = append(checks, check(
		"the flaky acquisition path forced supervisor retries", totalRetries > 0, "%d retries", totalRetries))
	checks = append(checks, check(
		"at least one run escalated past its configured policy", totalEscalations > 0, "%d escalations", totalEscalations))

	rep := &Report{
		ID:     "E13",
		Figure: "§2.4 self-healing soak",
		Title:  "chaos soak: all recovery policies converge under composed random failures",
		Text:   b.String(),
		Checks: checks,
	}
	rep.addCSV("chaos-soak.csv", csv.String())
	return rep, nil
}

func allPositive(m map[string]int) bool {
	for _, v := range m {
		if v <= 0 {
			return false
		}
	}
	return len(m) > 0
}
