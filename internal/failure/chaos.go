package failure

import "math/rand"

// Chaos is the seeded chaos-soak injector: it composes random boundary
// failures, random mid-superstep aborts, and random failures during
// recovery rounds — the three fault surfaces a self-healing deployment
// must survive at once. Each surface draws from its own rng (derived
// deterministically from the seed), so enabling one surface never
// perturbs the schedule of another and a seed pins the full chaos
// schedule for reproducible soak runs.
//
// It is the only seeded random injector. A cluster with a plain failure
// rate p is WithProbabilities(p, 0, 0): the mid-step and recovery
// surfaces then never strike, and their draws never shift the boundary
// schedule. proc.Chaos delivers this schedule as real SIGKILLs.
type Chaos struct {
	// BoundaryP, MidP and DuringP are the per-opportunity probabilities
	// of a boundary failure, a mid-superstep abort, and a
	// failure-during-recovery respectively.
	BoundaryP, MidP, DuringP float64
	// MaxAfterRecords bounds the random record threshold of
	// mid-superstep aborts (0 = always the first record).
	MaxAfterRecords int64

	boundary *rand.Rand
	mid      *rand.Rand
	during   *rand.Rand

	max   int // total failure budget across all surfaces; 0 = unlimited
	n     int
	until int // last superstep allowed to fail; <0 = no bound
}

// NewChaos returns a chaos injector with moderate default probabilities
// (0.2 boundary, 0.15 mid-step, 0.25 during-recovery) and no failure
// bound. Tune with the With* methods.
func NewChaos(seed int64) *Chaos {
	return &Chaos{
		BoundaryP:       0.2,
		MidP:            0.15,
		DuringP:         0.25,
		MaxAfterRecords: 64,
		boundary:        rand.New(rand.NewSource(seed)),
		mid:             rand.New(rand.NewSource(seed ^ 0x7f4a7c159e3779b9)),
		during:          rand.New(rand.NewSource(seed ^ 0x517cc1b727220a95)),
		until:           -1,
	}
}

// WithProbabilities sets the three per-opportunity probabilities and
// returns c for chaining.
func (c *Chaos) WithProbabilities(boundaryP, midP, duringP float64) *Chaos {
	c.BoundaryP, c.MidP, c.DuringP = boundaryP, midP, duringP
	return c
}

// WithMaxFailures bounds the total number of injected failures across
// all three surfaces (0 = unlimited) and returns c for chaining.
func (c *Chaos) WithMaxFailures(n int) *Chaos {
	c.max = n
	return c
}

// Until stops injecting anything after the given superstep, guaranteeing
// the iteration a clean convergence tail — soak assertions compare the
// final state against ground truth, which requires the chaos to end.
func (c *Chaos) Until(superstep int) *Chaos {
	c.until = superstep
	return c
}

// Injected returns how many failures have been injected so far.
func (c *Chaos) Injected() int { return c.n }

func (c *Chaos) spent(superstep int) bool {
	if c.until >= 0 && superstep > c.until {
		return true
	}
	return c.max > 0 && c.n >= c.max
}

// FailuresAt implements Injector.
func (c *Chaos) FailuresAt(superstep, _ int, alive []int) []int {
	if len(alive) == 0 || c.spent(superstep) {
		return nil
	}
	if c.boundary.Float64() >= c.BoundaryP {
		return nil
	}
	c.n++
	return []int{alive[c.boundary.Intn(len(alive))]}
}

// MidStepAt implements MidStepInjector.
func (c *Chaos) MidStepAt(superstep, _ int, alive []int) (MidStep, bool) {
	if len(alive) == 0 || c.spent(superstep) {
		return MidStep{}, false
	}
	if c.mid.Float64() >= c.MidP {
		return MidStep{}, false
	}
	c.n++
	w := alive[c.mid.Intn(len(alive))]
	var after int64
	if c.MaxAfterRecords > 0 {
		after = c.mid.Int63n(c.MaxAfterRecords + 1)
	}
	return MidStep{Workers: []int{w}, AfterRecords: after}, true
}

// FailuresDuringRecovery implements RecoveryInjector. Leaving at least
// one worker alive is the injector's responsibility here: recovery with
// an extinct cluster and an empty spare pool is unrecoverable by
// definition, which is a configuration error rather than chaos.
func (c *Chaos) FailuresDuringRecovery(superstep, _, _ int, alive []int) []int {
	if len(alive) <= 1 || c.spent(superstep) {
		return nil
	}
	if c.during.Float64() >= c.DuringP {
		return nil
	}
	c.n++
	return []int{alive[c.during.Intn(len(alive))]}
}
