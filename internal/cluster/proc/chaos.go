package proc

import (
	"math/rand"
	"time"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/failure"
)

// Chaos delivers failure.Chaos's seeded schedule to a multi-process
// cluster: every worker it reports has just been SIGKILLed for real via
// the coordinator, and the iteration driver's bookkeeping (cluster.Fail)
// runs against an actually dead process. Boundary strikes kill at the
// superstep barrier; mid-superstep strikes kill while the compute RPCs
// are in flight (the proc job translates ctx.Fault into real kills, at
// the first record: the schedule's MaxAfterRecords is 0); during-recovery
// strikes kill replacements while the supervisor is still healing the
// previous failure, for at most the first three folded rounds.
//
// With WithNetwork armed, boundary opportunities can also deliver
// network strikes — severed connections, delay bursts and partitions
// against the fault-injecting conn layer. Network strikes are not
// failures: they return nothing to the driver and the suspicion ladder
// decides whether the struck worker survives (reconnect within grace)
// or is condemned and recovered.
type Chaos struct {
	// NetP is the per-boundary probability of a network strike
	// (requires WithNetwork).
	NetP float64
	// NetDelay is the delay-burst magnitude (NewChaos sets 50ms).
	NetDelay time.Duration

	co       *Coordinator
	schedule *failure.Chaos
	killed   int // boundary + during strikes delivered as real SIGKILLs

	nw      *netfault.Network
	netRng  *rand.Rand
	netMax  int // network strike budget; 0 = unlimited
	netN    int
	strikes NetStrikes
	healDue map[int]int // partitioned worker -> boundaries until heal
	clear   []int       // delay-burst victims to clear at the next boundary
}

// NetStrikes counts delivered network strikes per kind.
type NetStrikes struct {
	Severed     int
	Delayed     int
	Partitioned int
}

// NewChaos returns a proc chaos injector over failure.NewChaos(seed)'s
// schedule, deterministic per seed in WHICH workers it strikes and when
// (the kills themselves are real, so downstream timing is not
// deterministic — that is the point of the soak).
func NewChaos(co *Coordinator, seed int64) *Chaos {
	schedule := failure.NewChaos(seed)
	// The proc job strikes mid-step at the first record, and a bound
	// would spend mid-step draws on thresholds it ignores.
	schedule.MaxAfterRecords = 0
	return &Chaos{
		NetDelay: 50 * time.Millisecond,
		co:       co,
		schedule: schedule,
		netRng:   rand.New(rand.NewSource(seed ^ 0x2545f4914f6cdd1d)),
		healDue:  make(map[int]int),
	}
}

// WithProbabilities sets the three per-opportunity crash probabilities
// (failure.Chaos.WithProbabilities).
func (c *Chaos) WithProbabilities(boundaryP, midP, duringP float64) *Chaos {
	c.schedule.WithProbabilities(boundaryP, midP, duringP)
	return c
}

// WithMaxFailures bounds the total number of crash strikes (0 =
// unlimited; failure.Chaos.WithMaxFailures).
func (c *Chaos) WithMaxFailures(n int) *Chaos {
	c.schedule.WithMaxFailures(n)
	return c
}

// WithNetwork arms network strikes against the given fault layer (which
// must be the coordinator's Config.NetFault) with per-boundary
// probability p and a total budget (0 = unlimited).
func (c *Chaos) WithNetwork(nw *netfault.Network, p float64, budget int) *Chaos {
	c.nw = nw
	c.NetP = p
	c.netMax = budget
	return c
}

// Killed returns how many real SIGKILLs this injector delivered.
func (c *Chaos) Killed() int { return c.killed }

// NetDelivered returns the per-kind network strike counts.
func (c *Chaos) NetDelivered() NetStrikes { return c.strikes }

func (c *Chaos) netBudgetLeft() bool { return c.netMax == 0 || c.netN < c.netMax }

// kill SIGKILLs the victims' processes and reports them.
func (c *Chaos) kill(victims []int) []int {
	for _, w := range victims {
		if c.co.Kill(w) {
			c.killed++
		}
	}
	return victims
}

// netBoundary runs the network surface at one superstep barrier: heal
// or clear strikes whose tenure expired, then maybe deliver a new one.
func (c *Chaos) netBoundary(alive []int) {
	if c.nw == nil {
		return
	}
	for _, w := range c.clear {
		c.nw.SetFaults(w, netfault.Inbound, netfault.Faults{})
		c.nw.SetFaults(w, netfault.Outbound, netfault.Faults{})
	}
	c.clear = nil
	for w, left := range c.healDue {
		if left <= 1 {
			c.nw.Heal(w)
			delete(c.healDue, w)
		} else {
			c.healDue[w] = left - 1
		}
	}
	if len(alive) == 0 || !c.netBudgetLeft() || c.netRng.Float64() >= c.NetP {
		return
	}
	w := alive[c.netRng.Intn(len(alive))]
	c.netN++
	switch c.netRng.Intn(3) {
	case 0:
		c.nw.Sever(w)
		c.strikes.Severed++
	case 1:
		// A delay burst on both directions, cleared at the next
		// boundary: every frame to and from w is held for NetDelay.
		f := netfault.Faults{DelayP: 1, Delay: c.NetDelay}
		c.nw.SetFaults(w, netfault.Inbound, f)
		c.nw.SetFaults(w, netfault.Outbound, f)
		c.clear = append(c.clear, w)
		c.strikes.Delayed++
	case 2:
		// A symmetric partition that heals after one or two boundaries
		// — long enough to climb the ladder when supersteps are slow,
		// short enough to usually rejoin within grace.
		c.nw.Partition(w)
		c.healDue[w] = 1 + c.netRng.Intn(2)
		c.strikes.Partitioned++
	}
}

// FailuresAt implements failure.Injector: a boundary strike is a real
// SIGKILL delivered at the superstep barrier. The network surface also
// runs here (strikes and heals), but its victims are NOT reported —
// whether they fail is the suspicion ladder's call.
func (c *Chaos) FailuresAt(superstep, tick int, alive []int) []int {
	c.netBoundary(alive)
	return c.kill(c.schedule.FailuresAt(superstep, tick, alive))
}

// MidStepAt implements failure.MidStepInjector. The kill itself is
// performed by the proc job when it sees ctx.Fault, mid-dispatch — so
// this surface does not kill here, it schedules.
func (c *Chaos) MidStepAt(superstep, tick int, alive []int) (failure.MidStep, bool) {
	return c.schedule.MidStepAt(superstep, tick, alive)
}

// FailuresDuringRecovery implements failure.RecoveryInjector: a
// replacement (or survivor) is SIGKILLed while the recovery round for
// the previous failure is still in flight.
func (c *Chaos) FailuresDuringRecovery(superstep, tick, round int, alive []int) []int {
	if round > 2 {
		return nil
	}
	return c.kill(c.schedule.FailuresDuringRecovery(superstep, tick, round, alive))
}
