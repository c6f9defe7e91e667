package pagerank

// Compensation restores a consistent rank state after the listed
// partitions were lost and cleared. Consistent means: every vertex has
// a rank and all ranks sum to one — from any such state the power
// iteration converges to the correct result [14].
type Compensation func(pr *PR, lost []int) error

// UniformRedistribution is the paper's fix-ranks compensation
// (§2.2.2): the lost probability mass is distributed uniformly over the
// vertices of the failed partitions; survivors keep their ranks.
func UniformRedistribution(pr *PR, lost []int) error {
	// Lost partitions are already cleared, so what Range sums survived.
	pr.redistribute(lost, lost, pr.RankSum())
	return nil
}

// redistribute is fix-ranks' slot fill: every vertex of the lost
// partitions gets an equal share of the mass missing from surviving.
// fill lists the lost partitions computed here — all of them in-process.
func (pr *PR) redistribute(lost, fill []int, surviving float64) {
	lostCount := 0
	for _, p := range lost {
		lostCount += len(pr.pt.Owned[p])
	}
	if lostCount == 0 {
		return
	}
	pr.fill(fill, (1-surviving)/float64(lostCount))
}

// ResetAllUniform is a crude alternative compensation: forget all
// progress and reset every vertex to 1/n. Trivially consistent, but it
// discards the survivors' converged ranks — the ablation E8 quantifies
// how many extra iterations that costs.
func ResetAllUniform(pr *PR, _ []int) error {
	pr.seed(pr.parts)
	return nil
}

// ZeroFillRenormalize is another alternative: lost vertices restart at
// rank zero and the surviving ranks are scaled up so the total mass is
// one again. Lost vertices regain mass through incoming contributions
// and the teleport term.
func ZeroFillRenormalize(pr *PR, lost []int) error {
	surviving := pr.RankSum()
	if surviving <= 0 {
		// Everything was lost; fall back to a uniform restart.
		return ResetAllUniform(pr, lost)
	}
	scale := 1 / surviving
	for _, p := range pr.parts {
		// The lost partitions were cleared: their ranks read as zero.
		ranks := pr.ranks.WriteAll(p)
		for slot := range ranks {
			ranks[slot] *= scale
		}
	}
	return nil
}
