// Package cluster models the machines of a dataflow deployment: a set
// of workers that own the partitions of the iteration state. Failing a
// worker loses every partition it owns; recovery "re-assigns the lost
// computations to newly acquired nodes" (§2.2) by provisioning a fresh
// worker and handing it the orphaned partitions.
//
// Real deployments cannot provision unconditionally: the pool of spare
// machines is finite, and acquisitions can be slow or fail outright.
// New therefore accepts options — WithSpares bounds how many
// replacements can ever be provisioned (AcquireN may then return fewer
// workers than requested), WithAcquireHook injects per-acquisition
// latency and failures, and WithEventCap bounds the event log for long
// soak runs. When the pool is exhausted, AssignOrphans implements the
// degraded fallback: orphaned partitions are spread round-robin across
// the surviving workers and the cluster runs narrower until spares
// return (Release, AddSpares).
//
// Cluster is the one membership both deployments share: the
// multi-process coordinator (package cluster/proc) keeps a Cluster too,
// and runs its process I/O between the steps AcquireN and Release are
// built from (Grant, Attempt, Admit, AdoptOrphans; CheckRelease,
// ApplyRelease), so both backends run one algorithm.
package cluster

import (
	"fmt"
	"sort"
	"time"
)

// EventKind classifies a cluster log entry.
type EventKind = string

// Typed event kinds. Membership changes ("fail", "acquire", "release")
// carry the affected worker; pool and supervision events ("acquire-denied",
// "acquire-failed", "replenish", "repartition", "escalate", "retry") use
// Worker -1 and describe themselves in Detail.
const (
	EventFail          EventKind = "fail"
	EventAcquire       EventKind = "acquire"
	EventAcquireDenied EventKind = "acquire-denied"
	EventAcquireFailed EventKind = "acquire-failed"
	EventRelease       EventKind = "release"
	EventReplenish     EventKind = "replenish"
	EventRepartition   EventKind = "repartition"
	EventEscalate      EventKind = "escalate"
	EventRetry         EventKind = "retry"
	// Suspicion-ladder events (process-backed clusters only): a worker
	// entered the grace window ("suspect") or was declared failed after
	// it expired ("condemn").
	EventSuspect EventKind = "suspect"
	EventCondemn EventKind = "condemn"
)

// Event records a membership change or a recovery-supervision note, for
// demo narration and tests.
type Event struct {
	Kind       EventKind
	Worker     int // -1 for pool/supervision events
	Partitions []int
	// Detail is a human-readable annotation (denial reasons, hook
	// errors, escalation notes).
	Detail string
	// Latency is the provisioning latency reported by the acquire hook
	// for "acquire" events (zero without a hook).
	Latency time.Duration
}

// AcquireHook observes (and may sabotage) every worker provisioning
// attempt. seq counts provisioning attempts monotonically across the
// cluster's lifetime, worker is the ID the new worker would receive.
// The returned latency is recorded on the acquire event — it models
// slow provisioning deterministically instead of sleeping. A non-nil
// error fails the acquisition: no worker joins, the attempt is logged
// as "acquire-failed", and AcquireN returns the error alongside any
// workers acquired before the failure.
type AcquireHook func(seq, worker int) (latency time.Duration, err error)

// Option configures a Cluster at construction.
type Option func(*Cluster)

// WithSpares bounds the spare pool: at most n additional workers can be
// provisioned over the cluster's lifetime (n >= 0). Releases and
// AddSpares replenish the pool. Without this option the pool is
// unlimited — the paper demo's fiction of an always-available
// replacement.
func WithSpares(n int) Option {
	if n < 0 {
		n = 0
	}
	return func(c *Cluster) { c.spares = n }
}

// WithAcquireHook installs h on every provisioning attempt.
func WithAcquireHook(h AcquireHook) Option {
	return func(c *Cluster) { c.acquireHook = h }
}

// WithEventCap bounds the event log to the most recent n entries
// (n >= 1); older entries are dropped and counted by DroppedEvents.
// Without this option the log grows without bound — fine for demos,
// not for chaos soak runs.
func WithEventCap(n int) Option {
	return func(c *Cluster) {
		if n >= 1 {
			c.eventCap = n
		}
	}
}

// Cluster tracks worker liveness, partition ownership and the spare
// pool. It takes no lock: a backend that reads it from several
// goroutines guards it with its own.
type Cluster struct {
	alive      map[int]bool // live workers; Fail and Release delete theirs
	released   map[int]bool // workers decommissioned via Release
	reserved   map[int]bool // IDs set aside by Reserve, not yet admitted
	owner      []int        // partition -> worker
	nextWorker int

	events        []Event
	eventCap      int // 0 = unbounded
	eventsDropped int

	spares      int // remaining spare workers; -1 = unlimited
	acquireHook AcquireHook
	acquireSeq  int
}

// New creates a cluster of numWorkers workers owning numPartitions
// partitions round-robin. numWorkers must be >= 1 and <= numPartitions
// is not required (workers may own zero partitions).
func New(numWorkers, numPartitions int, opts ...Option) *Cluster {
	if numWorkers < 1 {
		panic(fmt.Sprintf("cluster: need at least one worker, got %d", numWorkers))
	}
	if numPartitions < 1 {
		panic(fmt.Sprintf("cluster: need at least one partition, got %d", numPartitions))
	}
	c := &Cluster{
		alive:      make(map[int]bool),
		released:   make(map[int]bool),
		reserved:   make(map[int]bool),
		owner:      make([]int, numPartitions),
		nextWorker: numWorkers,
		spares:     -1,
	}
	for w := 0; w < numWorkers; w++ {
		c.alive[w] = true
	}
	for p := 0; p < numPartitions; p++ {
		c.owner[p] = p % numWorkers
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// NumPartitions returns the partition count.
func (c *Cluster) NumPartitions() int { return len(c.owner) }

// Workers returns the sorted IDs of live workers.
func (c *Cluster) Workers() []int {
	ws := make([]int, 0, len(c.alive))
	for w, ok := range c.alive {
		if ok {
			ws = append(ws, w)
		}
	}
	sort.Ints(ws)
	return ws
}

// Owner returns the worker owning partition p.
func (c *Cluster) Owner(p int) int { return c.owner[p] }

// PartitionsOf returns the sorted partitions owned by worker w.
func (c *Cluster) PartitionsOf(w int) []int {
	var ps []int
	for p, o := range c.owner {
		if o == w {
			ps = append(ps, p)
		}
	}
	return ps
}

// IsAlive reports whether worker w is live.
func (c *Cluster) IsAlive(w int) bool { return c.alive[w] }

// Spares returns the number of workers still provisionable from the
// spare pool, or -1 when the pool is unlimited.
func (c *Cluster) Spares() int { return c.spares }

// AddSpares replenishes the bounded spare pool by n machines — the
// operations team racking new hardware. A no-op on unlimited pools.
func (c *Cluster) AddSpares(n int) {
	if c.spares < 0 || n <= 0 {
		return
	}
	c.spares += n
	c.record(Event{Kind: EventReplenish, Worker: -1,
		Detail: fmt.Sprintf("%d spare(s) added, pool now %d", n, c.spares)})
}

// Fail kills worker w and returns the partitions it owned (now lost).
// Failing an unknown or dead worker returns nil.
func (c *Cluster) Fail(w int) []int {
	if !c.alive[w] {
		return nil
	}
	delete(c.alive, w)
	lost := c.PartitionsOf(w)
	c.record(Event{Kind: EventFail, Worker: w, Partitions: lost})
	return lost
}

// Release gracefully decommissions live worker w: its partitions are
// re-assigned round-robin across the other live workers (no state is
// lost — this is cooperative, unlike Fail) and the machine returns to
// the spare pool. Only a currently-live worker can be released; double
// releases, IDs this cluster never provisioned, crashed workers and the
// last live worker are rejected with a *ReleaseError so a confused
// supervisor cannot inflate the spare pool with machines it does not
// actually hold.
func (c *Cluster) Release(w int) error {
	if _, err := c.CheckRelease(w); err != nil {
		return err
	}
	c.ApplyRelease(w)
	return nil
}

// CheckRelease returns the partitions live worker w owns, or the
// *ReleaseError Release(w) rejects it with. It changes nothing, so a
// backend can migrate those partitions' state before ApplyRelease.
func (c *Cluster) CheckRelease(w int) ([]int, error) {
	var reason error
	switch {
	case w < 0 || w >= c.nextWorker || c.reserved[w]:
		reason = ErrUnknownWorker
	case c.released[w]:
		reason = ErrDoubleRelease
	case !c.alive[w]:
		reason = ErrDeadWorker
	case len(c.alive) == 1:
		reason = ErrLastWorker
	default:
		return c.PartitionsOf(w), nil
	}
	return nil, &ReleaseError{Worker: w, Reason: reason}
}

// ApplyRelease decommissions w, which CheckRelease accepted: its
// partitions move round-robin across the other live workers, in
// ascending order, and a bounded pool gets its machine back. It returns
// the moved partitions grouped by the survivor adopting them.
func (c *Cluster) ApplyRelease(w int) map[int][]int {
	delete(c.alive, w)
	survivors := c.Workers()
	moved := c.PartitionsOf(w)
	perOwner := make(map[int][]int)
	for i, p := range moved {
		o := survivors[i%len(survivors)]
		c.owner[p] = o
		perOwner[o] = append(perOwner[o], p)
	}
	c.released[w] = true
	if c.spares >= 0 {
		c.spares++
	}
	c.record(Event{Kind: EventRelease, Worker: w, Partitions: moved})
	return perOwner
}

// Acquire provisions a fresh worker and assigns it every orphaned
// partition (partitions whose owner is dead), returning the new
// worker's ID and the partitions it received. This mirrors the paper's
// re-assignment to newly acquired nodes. With an exhausted spare pool
// (or a failing acquire hook) no worker joins and Acquire returns
// (-1, nil).
func (c *Cluster) Acquire() (worker int, adopted []int) {
	ws, ad, _ := c.AcquireN(1)
	if len(ws) == 0 {
		return -1, nil
	}
	return ws[0], ad[0]
}

// AcquireN provisions up to n fresh workers (one per failed worker,
// matching the paper's plural "newly acquired nodes") and spreads every
// orphaned partition across them round-robin in ascending partition
// order, so a multi-worker failure does not shrink the cluster or pile
// all orphans onto a single replacement. It returns the new worker IDs
// and, aligned with them, the partitions each worker adopted.
//
// Unlike the paper's demo, provisioning can come up short: a bounded
// spare pool grants fewer workers than requested (an "acquire-denied"
// event records the shortfall, err stays nil — retrying will not
// conjure spares), and an AcquireHook error aborts the sequence (an
// "acquire-failed" event, the error returned alongside the workers
// acquired before it — retrying may succeed). Callers must therefore
// check len(workers), not assume n.
func (c *Cluster) AcquireN(n int) (workers []int, adopted [][]int, err error) {
	var got []Acquired
	for range c.Grant(n) {
		w, provision := c.Attempt(-1)
		lat, hookErr := provision()
		if hookErr != nil {
			err = c.AcquireFailed(w, hookErr)
			break
		}
		c.Admit(w)
		got = append(got, Acquired{Worker: w, Latency: lat})
	}
	workers, adopted = c.AdoptOrphans(got)
	return workers, adopted, err
}

// Grant is AcquireN's first step: it caps a request for n workers
// (at least 1) by the bounded spare pool, logs the shortfall as an
// "acquire-denied" event, and returns how many attempts may proceed.
func (c *Cluster) Grant(n int) int {
	n = max(n, 1)
	if c.spares < 0 || c.spares >= n {
		return n
	}
	c.record(Event{Kind: EventAcquireDenied, Worker: -1,
		Detail: fmt.Sprintf("%d of %d acquisitions denied: spare pool exhausted", n-c.spares, n)})
	return c.spares
}

// Attempt opens one provisioning attempt: it returns the ID the new
// worker gets — reserved when that is an ID Reserve handed out, else
// the next fresh one — and the acquire hook bound to the attempt's
// sequence number (a no-op without WithAcquireHook). The hook is a
// plain function, so a backend guarding the Cluster with a lock can run
// it outside.
func (c *Cluster) Attempt(reserved int) (w int, provision func() (time.Duration, error)) {
	c.acquireSeq++
	seq, w, hook := c.acquireSeq, c.nextWorker, c.acquireHook
	if c.reserved[reserved] {
		w = reserved
	}
	if hook == nil {
		return w, func() (time.Duration, error) { return 0, nil }
	}
	return w, func() (time.Duration, error) { return hook(seq, w) }
}

// AcquireFailed logs attempt w's failure as an "acquire-failed" event
// and returns err as AcquireN reports it.
func (c *Cluster) AcquireFailed(w int, err error) error {
	c.record(Event{Kind: EventAcquireFailed, Worker: w, Detail: err.Error()})
	return fmt.Errorf("cluster: acquiring worker %d: %w", w, err)
}

// Admit makes attempt w a live member and takes its machine from a
// bounded pool.
func (c *Cluster) Admit(w int) {
	c.nextWorker = max(c.nextWorker, w+1)
	delete(c.reserved, w)
	c.alive[w] = true
	if c.spares > 0 {
		c.spares--
	}
}

// Acquired is one admitted worker, as its "acquire" event records it:
// the hook's latency and how the backend provisioned it.
type Acquired struct {
	Worker  int
	Latency time.Duration
	Detail  string
}

// AdoptOrphans is AcquireN's last step: it spreads every orphaned
// partition round-robin, in ascending order, across the admitted
// workers, logs one "acquire" event each, and returns their IDs and,
// aligned with them, the partitions each adopted.
func (c *Cluster) AdoptOrphans(got []Acquired) (workers []int, adopted [][]int) {
	adopted = make([][]int, len(got))
	if len(got) > 0 {
		for i, p := range c.Orphaned() {
			j := i % len(got)
			c.owner[p] = got[j].Worker
			adopted[j] = append(adopted[j], p)
		}
	}
	for i, a := range got {
		workers = append(workers, a.Worker)
		c.record(Event{Kind: EventAcquire, Worker: a.Worker, Partitions: adopted[i], Latency: a.Latency, Detail: a.Detail})
	}
	return workers, adopted
}

// Reserve sets a fresh worker ID aside for a worker provisioned ahead
// of need (a warm standby). The ID is no member — Release rejects it as
// unknown — until Attempt hands it out and Admit admits it.
func (c *Cluster) Reserve() int {
	w := c.nextWorker
	c.nextWorker++
	c.reserved[w] = true
	return w
}

// Orphaned returns the partitions currently owned by dead workers, in
// ascending order.
func (c *Cluster) Orphaned() []int {
	var ps []int
	for p, o := range c.owner {
		if !c.alive[o] {
			ps = append(ps, p)
		}
	}
	return ps
}

// AssignOrphans redistributes every orphaned partition round-robin (in
// ascending partition order) across the surviving live workers — the
// degraded-mode fallback when the spare pool is exhausted: the cluster
// runs narrower until spares return. It returns worker -> partitions
// actually moved, and an error if no live worker remains to adopt them.
func (c *Cluster) AssignOrphans() (map[int][]int, error) {
	orphans := c.Orphaned()
	if len(orphans) == 0 {
		return nil, nil
	}
	ws := c.Workers()
	if len(ws) == 0 {
		return nil, fmt.Errorf("cluster: %d orphaned partitions and no live worker to adopt them", len(orphans))
	}
	moved := make(map[int][]int)
	for i, p := range orphans {
		w := ws[i%len(ws)]
		c.owner[p] = w
		moved[w] = append(moved[w], p)
	}
	c.record(Event{Kind: EventRepartition, Worker: -1, Partitions: orphans,
		Detail: fmt.Sprintf("degraded: %d orphaned partition(s) repartitioned across %d survivor(s)", len(orphans), len(ws))})
	return moved, nil
}

// Note appends a supervision event (escalations, retry/backoff notes)
// to the cluster log so demo narration and tests see one ordered
// history of everything that happened to the deployment.
func (c *Cluster) Note(kind EventKind, detail string, partitions []int) {
	c.record(Event{Kind: kind, Worker: -1, Partitions: partitions, Detail: detail})
}

// NoteWorker appends an event about worker w — a process-backed
// cluster's detection verdicts ("suspect", "condemn") — to the same
// log.
func (c *Cluster) NoteWorker(kind EventKind, w int, detail string) {
	c.record(Event{Kind: kind, Worker: w, Detail: detail})
}

// record appends e, honouring the ring-buffer cap.
func (c *Cluster) record(e Event) {
	if c.eventCap > 0 && len(c.events) >= c.eventCap {
		drop := len(c.events) - c.eventCap + 1
		c.events = c.events[drop:]
		c.eventsDropped += drop
	}
	c.events = append(c.events, e)
}

// Events returns the cluster log (the most recent entries when a cap is
// configured).
func (c *Cluster) Events() []Event { return c.events }

// DroppedEvents returns how many log entries the ring-buffer cap
// discarded.
func (c *Cluster) DroppedEvents() int { return c.eventsDropped }
