// Package supervise is the self-healing layer between the iteration
// driver and the cluster/recovery machinery. The paper's demo assumes
// recovery itself cannot fail: a replacement worker is always available
// the instant one dies, the compensation function always applies, and
// nothing crashes while a restore is in flight. A supervisor drops
// those assumptions:
//
//   - worker acquisition is retried with capped exponential backoff
//     when provisioning fails, and falls back to degraded mode — the
//     orphaned partitions are repartitioned across the surviving
//     workers and the cluster runs narrower — when the spare pool is
//     exhausted;
//   - a failure budget bounds how many consecutive attempts of the same
//     superstep may be discarded before the configured policy is deemed
//     not to be making progress;
//   - instead of aborting when a policy errors or the budget runs out,
//     the supervisor walks an escalation ladder — compensation → full
//     restart for the none policy, full restart for every other —
//     recording each escalation as a typed cluster event;
//   - injectors may strike during recovery ("Failure Transparency in
//     Stateful Dataflow Systems" calls this the recovery-of-recovery
//     obligation): new deaths are folded into the current recovery as
//     an additional round rather than corrupting or aborting it.
//
// All timing flows through internal/clock, so supervised runs replay
// deterministically; backoff delays are recorded, and only slept when a
// Sleep function is configured.
package supervise

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"optiflow/internal/clock"
	"optiflow/internal/cluster"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/recovery"
)

// Escalation ladder rungs, in order of increasing desperation.
const (
	rungCompensation = "compensation"
	rungRestart      = "restart"
)

// Config tunes a Supervisor. The zero value is usable: zero spares,
// three acquire retries and a budget of three consecutive discarded
// attempts per superstep.
type Config struct {
	// Spares bounds the cluster's spare pool (>= 0). Negative means
	// unlimited — the paper demo's fiction.
	Spares int
	// MaxAcquireRetries is how often a failed acquisition is retried
	// before giving up on replacement workers for the round (default 3;
	// negative disables retries).
	MaxAcquireRetries int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between acquire retries: min(BackoffBase << attempt, BackoffCap).
	// Defaults 5ms and 80ms. Bases below MinBackoffBase are raised to
	// it — a zero or near-zero base would double to nothing and turn
	// every acquire failure into a hot spin against the provisioner.
	BackoffBase, BackoffCap time.Duration
	// FailureBudget is the maximum number of consecutive discarded
	// attempts of one superstep before the supervisor stops trusting
	// the configured policy and escalates (default 3; negative disables
	// the budget).
	FailureBudget int
	// MaxRecoveryRounds bounds failure-during-recovery folding within a
	// single Recover call (default 8). Exceeding it is a fatal error —
	// the chaos is outrunning recovery.
	MaxRecoveryRounds int
	// AcquireHook is installed on the cluster (via ClusterOptions) to
	// model slow or flaky provisioning.
	AcquireHook cluster.AcquireHook
	// EventCap, when positive, bounds the cluster event log (via
	// ClusterOptions) for long soak runs.
	EventCap int
	// Sleep, when set, is called with each backoff delay. Leave nil to
	// keep runs instant — the delays are still computed and recorded in
	// retry events either way.
	Sleep func(time.Duration)
}

// MinBackoffBase is the smallest acquire-retry backoff base the
// supervisor will honour. Exponential backoff degenerates when the base
// is (effectively) zero — 0 doubled is still 0, so every retry fires
// immediately and a stuck provisioner gets hammered in a hot spin.
// Config bases in (0, MinBackoffBase) are raised to this floor;
// non-positive bases take the 5ms default.
const MinBackoffBase = time.Millisecond

func (c Config) withDefaults() Config {
	if c.MaxAcquireRetries == 0 {
		c.MaxAcquireRetries = 3
	} else if c.MaxAcquireRetries < 0 {
		c.MaxAcquireRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	} else if c.BackoffBase < MinBackoffBase {
		c.BackoffBase = MinBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 80 * time.Millisecond
	}
	if c.FailureBudget == 0 {
		c.FailureBudget = 3
	} else if c.FailureBudget < 0 {
		c.FailureBudget = 0 // disabled
	}
	if c.MaxRecoveryRounds <= 0 {
		c.MaxRecoveryRounds = 8
	}
	return c
}

// ClusterOptions translates the Config into the cluster options a
// supervised deployment needs (spare pool bound, acquire hook, event
// cap). Pass them to cluster.New when building the cluster the
// Supervisor will manage.
func (c Config) ClusterOptions() []cluster.Option {
	var opts []cluster.Option
	if c.Spares >= 0 {
		opts = append(opts, cluster.WithSpares(c.Spares))
	}
	if c.AcquireHook != nil {
		opts = append(opts, cluster.WithAcquireHook(c.AcquireHook))
	}
	if c.EventCap > 0 {
		opts = append(opts, cluster.WithEventCap(c.EventCap))
	}
	return opts
}

// ClusterFactory provisions the cluster backend a run executes on:
// workers and partitions are the initial counts, sup is the
// supervision config (nil for unsupervised runs — the factory then
// leaves the spare pool unlimited). The returned func tears the
// cluster down when the run is over. The two deployments behind the
// one cluster.Interface each provide a factory: cluster.New wrapped
// trivially for the in-process simulation, proc.Provision for the
// multi-process cluster of real worker daemons.
type ClusterFactory func(workers, partitions int, sup *Config) (cluster.Interface, func(), error)

// Outcome reports what one Recover call did.
type Outcome struct {
	// ResumeAt is the superstep at which execution resumes.
	ResumeAt int
	// Workers and LostPartitions cover every failure handled by this
	// recovery, including ones folded in while it ran.
	Workers, LostPartitions []int
	// Retries counts acquire retry attempts (after backoff).
	Retries int
	// Escalations counts ladder rungs climbed; EscalatedTo names the
	// rung that finally succeeded ("" when the configured policy
	// recovered without escalating).
	Escalations int
	EscalatedTo string
	// Degraded reports that orphaned partitions had to be repartitioned
	// across survivors because no replacement worker could be acquired.
	Degraded bool
	// FoldedFailures counts additional failures that struck during this
	// recovery and were folded into it as extra rounds.
	FoldedFailures int
	// Duration is the wall time of the whole recovery (per
	// internal/clock).
	Duration time.Duration
	// Description is a human-readable one-liner for samples and demo
	// status lines.
	Description string
}

// Supervisor wraps a recovery policy with retry, budget, degraded-mode
// and escalation logic for one cluster. It is not safe for concurrent
// use; the iteration driver calls it sequentially.
type Supervisor struct {
	cl       cluster.Interface
	policy   recovery.Policy
	injector failure.Injector
	cfg      Config

	// consecutive counts discarded attempts per superstep since the
	// last committed superstep — the failure budget's measure of
	// "is the policy making progress".
	consecutive map[int]int

	totalRetries     int
	totalEscalations int
}

// New builds a Supervisor for the given cluster. policy defaults to
// recovery.None (every failure escalates), injector to failure.None
// (nothing strikes during recovery).
func New(cl cluster.Interface, policy recovery.Policy, injector failure.Injector, cfg Config) *Supervisor {
	if policy == nil {
		policy = recovery.None{}
	}
	if injector == nil {
		injector = failure.None{}
	}
	return &Supervisor{
		cl:          cl,
		policy:      policy,
		injector:    injector,
		cfg:         cfg.withDefaults(),
		consecutive: make(map[int]int),
	}
}

// TotalRetries returns the acquire retries performed over the
// supervisor's lifetime.
func (s *Supervisor) TotalRetries() int { return s.totalRetries }

// TotalEscalations returns the escalation-ladder rungs climbed over the
// supervisor's lifetime.
func (s *Supervisor) TotalEscalations() int { return s.totalEscalations }

// NoteCommitted informs the supervisor that a superstep committed: the
// run is making progress again, so the consecutive-failure counters
// reset.
func (s *Supervisor) NoteCommitted(int) {
	if len(s.consecutive) > 0 {
		s.consecutive = make(map[int]int)
	}
}

// Recover handles the failure f, whose workers the driver has already
// killed on the cluster (their partitions are orphaned, the state not
// yet cleared). It replaces workers (with retry/backoff, falling back
// to degraded-mode repartitioning), clears the lost state, lets the
// policy recover — escalating when it errors or the failure budget is
// spent — and folds in any failures that strike while recovery runs.
// The returned error is fatal: the ladder's restart rung could not run,
// recovery rounds outran MaxRecoveryRounds, or the cluster is extinct.
func (s *Supervisor) Recover(job recovery.Job, f recovery.Failure) (*Outcome, error) {
	start := clock.Now()
	out := &Outcome{
		Workers:        append([]int(nil), f.Workers...),
		LostPartitions: append([]int(nil), f.LostPartitions...),
	}
	s.consecutive[f.Superstep]++

	roundWorkers := f.Workers
	roundLost := f.LostPartitions
	for round := 0; ; round++ {
		if round >= s.cfg.MaxRecoveryRounds {
			return nil, fmt.Errorf("supervise: %d recovery rounds for superstep %d without quiescing: failures are outrunning recovery", round, f.Superstep)
		}

		if err := s.replaceWorkers(len(roundWorkers), out); err != nil {
			return nil, err
		}
		job.ClearPartitions(roundLost)

		resumeAt, err := s.decide(job, recovery.Failure{
			Superstep: f.Superstep, Tick: f.Tick,
			Workers: roundWorkers, LostPartitions: roundLost,
		}, out)
		var under *exec.WorkerFailure
		if err != nil && !errors.As(err, &under) {
			return nil, err
		}
		out.ResumeAt = resumeAt

		// Did anything die while that restore/compensation ran — reported
		// by the injector, or by the policy as what stopped it? If so,
		// fold it in: the next round replaces the new dead, clears the
		// newly lost partitions and re-runs the policy over them.
		died, lost := s.duringRecoveryFailures(f.Superstep, f.Tick, round, under)
		if len(died) == 0 {
			if under != nil {
				return nil, err // it named nobody alive: nothing to fold in
			}
			break
		}
		out.FoldedFailures++
		out.Workers = Union(out.Workers, died)
		out.LostPartitions = Union(out.LostPartitions, lost)
		roundWorkers, roundLost = died, lost
	}

	out.Duration = clock.Since(start)
	out.Description = s.describe(f.Superstep, out)
	return out, nil
}

// replaceWorkers acquires up to n replacements, retrying hook failures
// with capped exponential backoff. Whatever cannot be replaced —
// exhausted spares or exhausted retries — is handled by degraded-mode
// repartitioning of the orphans across survivors.
func (s *Supervisor) replaceWorkers(n int, out *Outcome) error {
	need := n
	for attempt := 0; need > 0; attempt++ {
		ws, _, err := s.cl.AcquireN(need)
		need -= len(ws)
		if err == nil {
			// Fully granted, or denied by an empty spare pool — which
			// no amount of retrying will refill.
			break
		}
		if attempt >= s.cfg.MaxAcquireRetries {
			s.cl.Note(cluster.EventRetry,
				fmt.Sprintf("giving up on %d replacement(s) after %d attempt(s): %v", need, attempt+1, err), nil)
			break
		}
		backoff := s.backoff(attempt)
		out.Retries++
		s.totalRetries++
		s.cl.Note(cluster.EventRetry,
			fmt.Sprintf("acquire failed (%v); retry %d after %s", err, attempt+1, backoff), nil)
		if s.cfg.Sleep != nil {
			s.cfg.Sleep(backoff)
		}
	}
	if len(s.cl.Orphaned()) > 0 {
		if _, err := s.cl.AssignOrphans(); err != nil {
			return fmt.Errorf("supervise: %w", err)
		}
		out.Degraded = true
	}
	return nil
}

// backoff returns min(BackoffBase << attempt, BackoffCap), never below
// MinBackoffBase (belt-and-braces for Supervisors built without
// withDefaults).
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.cfg.BackoffBase
	if d < MinBackoffBase {
		d = MinBackoffBase
	}
	for i := 0; i < attempt && d < s.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	return d
}

// decide runs the configured policy unless the failure budget for this
// superstep is spent, escalating on budget exhaustion or policy error.
func (s *Supervisor) decide(job recovery.Job, f recovery.Failure, out *Outcome) (int, error) {
	overBudget := s.cfg.FailureBudget > 0 && s.consecutive[f.Superstep] > s.cfg.FailureBudget
	if overBudget {
		s.cl.Note(cluster.EventEscalate,
			fmt.Sprintf("failure budget spent: %d consecutive discarded attempts of superstep %d (budget %d)",
				s.consecutive[f.Superstep], f.Superstep, s.cfg.FailureBudget), f.LostPartitions)
		return s.escalate(job, f, out)
	}
	resumeAt, err := s.policy.OnFailure(job, f)
	if err == nil || errors.As(err, new(*exec.WorkerFailure)) {
		// A worker dying under the policy is Recover's to fold in, not a
		// reason to escalate.
		return resumeAt, err
	}
	s.cl.Note(cluster.EventEscalate,
		fmt.Sprintf("policy %s could not recover (%v)", s.policy.PolicyName(), err), f.LostPartitions)
	return s.escalate(job, f, out)
}

// escalate climbs the ladder above the configured policy until a rung
// recovers. Only the none policy has compensation above it: the
// optimistic and confined policies already compensate, and escalating
// a checkpoint policy to compensation would be a demotion. No rung
// restores a checkpoint: the policies below restart write none, and a
// checkpointing policy restores its own. The full restart always
// applies, so the ladder only fails if ResetToInitial does.
func (s *Supervisor) escalate(job recovery.Job, f recovery.Failure, out *Outcome) (int, error) {
	if s.policy.PolicyName() == "none" {
		s.noteEscalation(out, "escalating to compensation", f.LostPartitions)
		err := job.Compensate(f.LostPartitions)
		if err == nil {
			out.EscalatedTo = rungCompensation
			return f.Superstep + 1, nil
		}
		s.cl.Note(cluster.EventEscalate, fmt.Sprintf("compensation failed: %v", err), nil)
	}
	s.noteEscalation(out, "escalating to full restart", f.LostPartitions)
	if err := job.ResetToInitial(); err != nil {
		return 0, fmt.Errorf("supervise: restart rung failed for %s: %v", job.Name(), err)
	}
	out.EscalatedTo = rungRestart
	// A restart wipes the run's history; the budget counters start over
	// with it.
	s.consecutive = make(map[int]int)
	return 0, nil
}

func (s *Supervisor) noteEscalation(out *Outcome, detail string, partitions []int) {
	out.Escalations++
	s.totalEscalations++
	s.cl.Note(cluster.EventEscalate, detail, partitions)
}

// duringRecoveryFailures consults the injector's recovery surface, adds
// the workers the policy reported dying under it, and kills them all,
// returning those that actually died and the partitions they owned.
func (s *Supervisor) duringRecoveryFailures(superstep, tick, round int, under *exec.WorkerFailure) (died, lost []int) {
	var workers []int
	if ri, ok := s.injector.(failure.RecoveryInjector); ok {
		workers = ri.FailuresDuringRecovery(superstep, tick, round, s.cl.Workers())
	}
	if under != nil {
		workers = Union(workers, under.Workers)
	}
	for _, w := range workers {
		if !s.cl.IsAlive(w) {
			continue
		}
		died = append(died, w)
		lost = append(lost, s.cl.Fail(w)...)
	}
	return died, lost
}

// describe renders the one-line recovery description for samples and
// demo status lines.
func (s *Supervisor) describe(at int, out *Outcome) string {
	name := s.policy.PolicyName()
	if out.EscalatedTo != "" {
		name = fmt.Sprintf("%s→%s", name, out.EscalatedTo)
	}
	base := Describe(name, at, out.ResumeAt)
	if out.FoldedFailures > 0 {
		base += fmt.Sprintf(" (+%d failure(s) during recovery)", out.FoldedFailures)
	}
	if out.Retries > 0 {
		base += fmt.Sprintf(" (%d acquire retr%s)", out.Retries, plural(out.Retries, "y", "ies"))
	}
	if out.Degraded {
		base += " [degraded: orphans repartitioned across survivors]"
	}
	return base
}

// Describe renders where a recovery by the named policy of a failure
// at superstep at resumes: compensated in place, rewound to the start,
// or rolled back to a checkpoint.
func Describe(policy string, at, resumeAt int) string {
	switch {
	case resumeAt == at+1:
		return fmt.Sprintf("%s: compensated, continuing with superstep %d", policy, resumeAt)
	case resumeAt == 0:
		return fmt.Sprintf("%s: rewound to superstep 0", policy)
	default:
		return fmt.Sprintf("%s: rolled back to superstep %d", policy, resumeAt)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Union returns the sorted, deduplicated union of two worker or
// partition lists in a new slice; neither argument is written.
func Union(a, b []int) []int {
	u := slices.Concat(a, b)
	slices.Sort(u)
	return slices.Compact(u)
}
