package proc

// job.go is the driver half of a worker-hosted job, and it is transport
// and protocol only: ship each worker the adjacency of its partitions,
// drive the superstep protocol, relay the exchange columns one worker
// expanded for partitions another hosts, add up the workers' partial
// scalars, move partition state views for checkpoints and results. The
// superstep itself — expand, fold, apply, what a label or a rank is —
// is the columnar job of package cc or pagerank running on
// exec.ColEngine inside each worker (worker.go), the same definitions
// the in-process path runs; the bytes relayed here are opaque.

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

var _ recovery.Job = (*Job)(nil)

// Spec describes one worker-hosted iterative job.
type Spec struct {
	// Name identifies the job (checkpoint keys, diagnostics).
	Name string
	// Kind is the algorithm: KindCC or KindPageRank.
	Kind string
	// Graph is the input graph.
	Graph *graph.Graph
	// Damping is PageRank's damping factor (pagerank.DefaultDamping if
	// zero).
	Damping float64
}

// Job runs an iterative algorithm with its state hosted ON the worker
// processes — unlike the in-process jobs (cc.CC, pagerank.PR), whose
// state lives in the driver and which use the cluster only for
// membership. A superstep is one round trip: every worker computes an
// attempt and holds it; once all have answered, the commit rides on the
// next request each sees (Coordinator.owe). A failed attempt is aborted
// everywhere at once, so one torn by a SIGKILL leaves worker state
// untouched and replayable.
//
// Because the exchange crosses the driver, one superstep of the
// in-process job spans two steps here: a step folds what the previous
// step's expansion sent, applies it, and expands the result. A priming
// step (rescatter) folds nothing and re-announces all committed state —
// the first step of a job and the first after a rollback, a restart or a
// change of placement that rebuilt a surviving worker's job, when the
// columns in flight no longer match the state.
//
// Job implements recovery.Job, so every recovery policy works
// unchanged: Compensate is the paper's optimistic path (workers run the
// job's compensation function on the lost partitions and re-send only
// what those sent; survivors keep state and columns), SnapshotTo/
// RestoreFrom fetch and push the partitions' state views for checkpoint
// rollback, and ResetToInitial serves the restart baseline.
type Job struct {
	co   *Coordinator
	spec Spec

	numParts int
	dense    *graph.Dense
	pt       *graph.Partitioning

	// inbox holds, per destination partition, the exchange columns the
	// last committed step produced on other workers, placement the
	// ownership they (and the columns workers kept) were produced under,
	// pending the message count they stand for. partials keeps each
	// worker's share of pending and dangling, for a compensation to combine
	// them again without the dead worker's; the messages it re-sends are
	// reported, as resent, with the next step's.
	//
	// The relayed columns live in the coordinator's relay arenas, two
	// generations per worker process (see relay): the inbox views the one
	// w's last committed StepResp decoded into, and the next attempt
	// decodes into the other. Its commit flips the generation; a failed
	// attempt leaves the inbox and its generation as they were, for the
	// replay to send again. The arenas outlive the job, so only the job
	// holding the relay (Coordinator.hold) may read the inbox.
	inbox     map[int][]exec.HostedCols
	placement []int
	partials  map[int]partial
	pending   int64
	resent    int64
	dangling  float64
	rescatter bool
	lastL1    float64

	// replica is a driver-side hosted job hosting nothing: state views
	// are checked and read through it, so their layout stays its
	// business.
	replica hostedJob
}

// NewJob makes the job the one that holds the coordinator's relay —
// the job built before it may no longer step — and loads every worker's
// partitions, on all workers at once.
func NewJob(co *Coordinator, spec Spec) (*Job, error) {
	replica, err := newHosted(spec.Kind, spec.Graph, co.NumPartitions(), spec.Damping, nil)
	if err != nil {
		return nil, fmt.Errorf("proc: %v", err)
	}
	d := spec.Graph.Dense()
	j := &Job{
		co:        co,
		spec:      spec,
		numParts:  co.NumPartitions(),
		dense:     d,
		pt:        d.Partitioning(co.NumPartitions()),
		replica:   replica,
		inbox:     make(map[int][]exec.HostedCols),
		partials:  make(map[int]partial),
		rescatter: true,
		lastL1:    math.MaxFloat64,
	}
	co.hold(j)
	if err := onOwners(j.ownersSnapshot(), j.loadPartitions); err != nil {
		return nil, err
	}
	return j, nil
}

// loadPartitions makes worker w host every partition it owns, the
// listed ones — initial placement, and every adoption by a replacement
// or survivor — starting in superstep-zero state. The adjacency of all
// of them goes along.
func (j *Job) loadPartitions(w int, parts []int) error {
	req := LoadReq{
		Job:           j.spec.Name,
		Kind:          j.spec.Kind,
		NumPartitions: j.numParts,
		Damping:       j.spec.Damping,
		IDs:           j.dense.IDs(),
		Hosted:        j.co.PartitionsOf(w),
		Fresh:         parts,
	}
	req.Offsets, req.Targets, req.Weights = j.dense.Restrict(j.pt, req.Hosted)
	if _, err := j.co.call(w, req); err != nil {
		return fmt.Errorf("proc: loading partitions %v onto worker %d: %v", parts, w, err)
	}
	return nil
}

// ownersSnapshot groups the current partition assignment by owner.
func (j *Job) ownersSnapshot() map[int][]int {
	owners := make(map[int][]int)
	for _, w := range j.co.Workers() {
		if parts := j.co.PartitionsOf(w); len(parts) > 0 {
			owners[w] = parts
		}
	}
	return owners
}

// partial is one worker's share of the scalars the driver combines.
type partial struct {
	dangling float64
	messages int64
}

// combine adds up the workers' partials, in the order listed so float
// sums repeat from run to run.
func (j *Job) combine(workers []int) {
	j.pending, j.dangling = 0, 0
	for _, w := range workers {
		j.dangling += j.partials[w].dangling
		j.pending += j.partials[w].messages
	}
}

// stepCall is one worker's share of a superstep attempt, kept in the
// step scratch and reused: the partitions it steps, the request sent
// from here, and the answer, whose columns view the worker's relay until
// its next step call.
type stepCall struct {
	w        int
	parts    []int
	req      StepReq
	resp     StepResp
	err      error
	answered bool
	done     chan<- *stepCall
}

// stepScratch is Step's working memory. The coordinator owns it and
// only the job holding the relay uses it, so every superstep of every
// job on a coordinator reuses one: a steady superstep allocates nothing
// in it.
type stepScratch struct {
	placement []int      // every partition's owner
	workers   []int      // the live owners, ascending
	calls     []stepCall // one per live owner, in workers' order
	answers   chan *stepCall
	watchdog  *time.Timer
}

// plan reads the placement and groups the partitions by live owner, in
// ascending order, into the calls.
func (s *stepScratch) plan(co *Coordinator) []stepCall {
	s.placement, s.workers = co.placeInto(s.placement, s.workers)
	for len(s.calls) < len(s.workers) {
		s.calls = append(s.calls, stepCall{})
	}
	calls := s.calls[:len(s.workers)]
	for i, w := range s.workers {
		calls[i].w, calls[i].parts = w, calls[i].parts[:0]
	}
	for p, w := range s.placement {
		if i, ok := slices.BinarySearch(s.workers, w); ok {
			calls[i].parts = append(calls[i].parts, p)
		}
	}
	if s.answers == nil {
		// An owner owns a partition, so no attempt makes more calls.
		s.answers = make(chan *stepCall, co.NumPartitions())
	}
	return calls
}

// arm starts the straggler watchdog for d and returns its channel.
func (s *stepScratch) arm(d time.Duration) <-chan time.Time {
	if s.watchdog == nil {
		s.watchdog = time.NewTimer(d)
	} else {
		s.watchdog.Reset(d)
	}
	return s.watchdog.C
}

// SupersededError is the typed refusal of a Job whose coordinator has
// since built a newer one: the workers host the newer job, and the relay
// arenas the old job's inbox views hold the newer job's columns.
type SupersededError struct{ Job string }

func (e *SupersededError) Error() string {
	return fmt.Sprintf("proc: job %q was superseded by a newer job on its coordinator", e.Job)
}

// holdsRelay refuses a job that no longer holds the relay.
func (j *Job) holdsRelay() error {
	if !j.co.holds(j) {
		return &SupersededError{Job: j.spec.Name}
	}
	return nil
}

// Step executes one superstep attempt across the worker processes: one
// parallel round of StepReqs carrying the previous superstep's commit
// (during which a scheduled mid-superstep fault SIGKILLs its victims
// for real), then the decision — committed if all answered, aborted
// everywhere if not. A failed attempt returns a typed
// *exec.WorkerFailure naming the dead workers, exactly like the
// in-process engine, so iterate.Loop's recovery path is unchanged. A job
// that no longer holds the relay returns a *SupersededError and sends
// nothing.
func (j *Job) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	if err := j.holdsRelay(); err != nil {
		return iterate.StepStats{}, err
	}
	s := &j.co.scratch
	calls := s.plan(j.co)
	if !slices.Equal(s.placement, j.placement) {
		// Partitions moved since the columns in flight were produced:
		// those workers kept are gone or misplaced, so start over.
		j.rescatter = true
	}
	for i := range calls {
		sc := &calls[i]
		sc.req = StepReq{Superstep: ctx.Superstep, Rescatter: j.rescatter, Dangling: j.dangling, Inbox: sc.req.Inbox[:0]}
		if !j.rescatter {
			for _, p := range sc.parts {
				sc.req.Inbox = append(sc.req.Inbox, j.inbox[p]...)
			}
		}
		sc.err, sc.answered = nil, false
		j.co.stepOn(sc.w, sc, s.answers)
	}

	// The mid-superstep fault: SIGKILL the victims while their compute
	// RPCs are in flight. A victim whose answer outruns the kill is dead
	// all the same, so it fails the attempt whether or not it answered.
	var killed []int
	if ctx.Fault != nil {
		for _, w := range ctx.Fault.Workers {
			if j.co.Kill(w) {
				killed = append(killed, w)
			}
		}
	}

	// Collect, with a straggler watchdog: once a majority of workers
	// has answered, the rest get a deadline relative to the majority's
	// elapsed time. A worker that blows it — partitioned inbound so it
	// computes forever unaware, or just wedged — is condemned, which
	// closes its connections and aborts its in-flight call, so the
	// attempt fails over to the normal recovery path instead of
	// stalling the whole job at the barrier.
	var failed []int
	pending := len(calls)
	start := time.Now()
	var straggle <-chan time.Time
	armed := false
	for pending > 0 {
		select {
		case sc := <-s.answers:
			pending--
			sc.answered = true
			if sc.err != nil || slices.Contains(killed, sc.w) {
				failed = append(failed, sc.w)
			}
			if straggle == nil && j.co.cfg.StragglerFactor > 0 && pending > 0 &&
				(len(calls)-pending)*2 >= len(calls) {
				d := time.Duration(float64(time.Since(start)) * j.co.cfg.StragglerFactor)
				if d < j.co.cfg.StragglerMin {
					d = j.co.cfg.StragglerMin
				}
				straggle, armed = s.arm(d), true
			}
		case <-straggle:
			straggle = nil
			for i := range calls {
				if !calls[i].answered {
					j.co.condemn(calls[i].w, fmt.Sprintf("straggling superstep %d beyond the majority deadline", ctx.Superstep))
				}
			}
		}
	}
	if armed {
		s.watchdog.Stop()
	}
	if len(failed) > 0 {
		// Abort survivors: their attempts are dropped, committed state
		// and the exchange columns in flight stay as they were, so the
		// attempt can be replayed after recovery.
		for i := range calls {
			if !slices.Contains(failed, calls[i].w) {
				j.co.call(calls[i].w, AbortReq{})
			}
		}
		return iterate.StepStats{}, workerFailure(failed, calls)
	}

	// Everyone answered: the superstep is committed by decision, and each
	// worker learns it from the next request it sees (one that dies first
	// loses state recovery replaces anyway). The attempt's outboxes become
	// the next superstep's inbox; partial scalars are added in worker
	// order so float sums repeat from run to run.
	j.co.owe(s.workers, ctx.Superstep)
	for dst, cols := range j.inbox {
		j.inbox[dst] = cols[:0]
	}
	j.placement, j.rescatter = append(j.placement[:0], s.placement...), false
	var stats iterate.StepStats
	var l1 float64
	folded := false
	for i := range calls {
		w, resp := calls[i].w, &calls[i].resp
		for _, cols := range resp.Remote {
			j.inbox[cols.Dst] = append(j.inbox[cols.Dst], cols)
		}
		j.partials[w] = partial{dangling: resp.Dangling, messages: resp.Messages}
		l1 += resp.L1
		folded = folded || resp.Folded
		stats.Updates += resp.Updates
	}
	j.combine(s.workers)
	stats.Messages, j.resent = j.pending+j.resent, 0
	if folded {
		j.lastL1 = l1
	}
	if j.spec.Kind == KindPageRank {
		stats.Extra = map[string]float64{"l1": j.lastL1}
	}
	return stats, nil
}

// workerFailure builds the typed mid-superstep failure error.
func workerFailure(workers []int, calls []stepCall) error {
	sort.Ints(workers)
	var parts []int
	for _, w := range workers {
		for i := range calls {
			if calls[i].w == w {
				parts = append(parts, calls[i].parts...)
			}
		}
	}
	sort.Ints(parts)
	return &exec.WorkerFailure{Workers: workers, Partitions: parts}
}

// WorksetLen reports pending work for delta-iteration termination:
// messages awaiting a fold, plus one if a priming step is due.
func (j *Job) WorksetLen() int {
	n := int(j.pending)
	if j.rescatter {
		n++
	}
	return n
}

// LastL1 returns the last folded superstep's L1 rank delta
// (math.MaxFloat64 until the first fold).
func (j *Job) LastL1() float64 { return j.lastL1 }

// Name implements recovery.Job.
func (j *Job) Name() string { return j.spec.Name }

// SnapshotError is the typed rejection of a checkpoint blob that cannot
// be restored onto the job as it is placed now: a foreign or wrong-kind
// blob, a partition the job owns but the blob lacks, or a state view
// that does not fit its partition. It is raised before any worker state
// is overwritten.
type SnapshotError struct{ Reason string }

func (e *SnapshotError) Error() string { return "proc: snapshot: " + e.Reason }

// onOwners runs op against every owner at once — each has its own
// connections, so state moves overlap — and returns the failure of the
// lowest-numbered worker that had one, whatever the map or arrival order.
func onOwners[T any](owners map[int][]T, op func(w int, items []T) error) error {
	workers := slices.Sorted(maps.Keys(owners))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = op(w, owners[w])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", workers[i], err)
		}
	}
	return nil
}

// fetchAll fetches every partition's committed state view from its
// owner, in partition order. An owner that died (or was condemned)
// under the fetch surfaces as a typed worker failure, so the iteration
// loop enters recovery instead of aborting the run.
func (j *Job) fetchAll() ([]PartBlob, error) {
	var mu sync.Mutex
	var all []PartBlob
	err := onOwners(j.ownersSnapshot(), func(w int, parts []int) error {
		fetched, err := j.co.fetchState(w, parts)
		if isTransportError(err) {
			err = &exec.WorkerFailure{Workers: []int{w}, Partitions: parts}
		}
		mu.Lock()
		all = append(all, fetched...)
		mu.Unlock()
		return err
	})
	sort.Slice(all, func(a, b int) bool { return all[a].Part < all[b].Part })
	return all, err
}

// SnapshotTo implements recovery.Job: every partition's state view in
// one blob, sorted, so equal distributed states snapshot to equal
// bytes.
func (j *Job) SnapshotTo(w *bytes.Buffer) error {
	parts, err := j.fetchAll()
	if err != nil {
		return fmt.Errorf("proc: snapshot: %w", err)
	}
	w.Write(appendSnapshot(nil, JobSnapshot{Kind: j.spec.Kind, Parts: parts}))
	return nil
}

// RestoreFrom implements recovery.Job: it pushes the snapshot's
// partition state back to the partitions' current owners and schedules
// a priming step to restart the exchange from it. The blob is checked
// in full against the job first (kind, every owned partition present,
// every view fitting its partition), so a bad blob returns a
// *SnapshotError with no worker touched.
func (j *Job) RestoreFrom(data []byte) error {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("proc: restore: %w", err)
	}
	if snap.Kind != j.spec.Kind {
		return &SnapshotError{fmt.Sprintf("blob is of a %q job, this one is %q", snap.Kind, j.spec.Kind)}
	}
	byPart := make(map[int]PartBlob, len(snap.Parts))
	for _, pb := range snap.Parts {
		byPart[pb.Part] = pb
	}
	owners := j.ownersSnapshot()
	push := make(map[int][]PartBlob, len(owners))
	for w, parts := range owners {
		for _, p := range parts {
			pb, ok := byPart[p]
			if !ok {
				return &SnapshotError{fmt.Sprintf("partition %d is owned by the job but missing from the blob", p)}
			}
			if err := j.replica.RestorePartition(p, pb.Data); err != nil {
				return &SnapshotError{err.Error()}
			}
			push[w] = append(push[w], pb)
		}
	}
	if err := onOwners(push, j.co.restoreState); err != nil {
		return fmt.Errorf("proc: restore: pushing to %v", err)
	}
	j.restartExchange()
	return nil
}

// restartExchange drops the columns in flight and schedules a priming
// step: the exchange starts over from whatever state the workers hold.
// The relay arenas the columns lived in stay, for the next attempt to
// decode into.
func (j *Job) restartExchange() {
	clear(j.inbox)
	j.pending, j.dangling = 0, 0
	j.rescatter = true
	j.lastL1 = math.MaxFloat64
}

// ClearPartitions implements recovery.Job: the listed partitions are
// reinitialised on their current owners (the replacement workers the
// cluster just assigned them to). RPC errors are swallowed — a worker
// dying during recovery is detected and folded into the recovery by
// the supervisor, not here.
func (j *Job) ClearPartitions(parts []int) {
	byOwner := make(map[int][]int)
	for _, p := range parts {
		w := j.co.Owner(p)
		byOwner[w] = append(byOwner[w], p)
	}
	for w, ps := range byOwner {
		j.co.call(w, ClearReq{Parts: ps})
	}
}

// Compensate implements recovery.Job — the optimistic compensation
// function, run where the state is; the lost partitions were replaced and
// reinitialised already. Survivors report their partitions' state mass
// and re-send what the job's compensation re-activates (CC: labels along
// out-edges into the lost partitions); the new owners, told the combined
// mass, fill the lost partitions (PageRank: a uniform share of what is
// missing, so ranks sum to one again) and expand them. Columns a surviving
// partition sent — held on its worker, relayed here — stay; the lost
// ones' are replaced by the responses', so the next step just folds.
//
// One fallback, a global priming step from the state as compensated: when
// a survivor's job was rebuilt (it adopted lost partitions, no spare
// being left, and load dropped its columns) or a worker died under the
// compensation — returned as a typed failure for the recovery to fold in.
func (j *Job) Compensate(lost []int) error {
	if err := j.holdsRelay(); err != nil {
		return err
	}
	// A surviving partition kept its columns if it stayed where they were
	// produced and its worker adopted nothing.
	placement, _ := j.co.placeInto(nil, nil)
	fill, survivors := make(map[int][]int), make(map[int][]int)
	rebuilt := false
	for p, w := range placement {
		if slices.Contains(lost, p) {
			fill[w] = append(fill[w], p)
		} else {
			survivors[w] = nil
			rebuilt = rebuilt || j.placement != nil && j.placement[p] != w
		}
	}
	for w := range fill {
		_, adopted := survivors[w]
		rebuilt = rebuilt || adopted
	}
	for dst, cols := range j.inbox {
		j.inbox[dst] = slices.DeleteFunc(cols, func(c exec.HostedCols) bool { return slices.Contains(lost, c.Src) })
	}
	surviving, err := j.compensateOn(survivors, lost, 0)
	if err == nil {
		_, err = j.compensateOn(fill, lost, surviving)
	}
	if err != nil || rebuilt {
		j.restartExchange()
	} else {
		j.combine(j.co.Workers())
		j.placement, j.lastL1 = placement, math.MaxFloat64
	}
	if err != nil {
		return fmt.Errorf("proc: compensation: %w", err)
	}
	return nil
}

// compensateOn asks each worker of fill to compensate, filling the lost
// partitions listed for it, and takes in the responses in worker order:
// new rows join the columns relayed for their pair in a fresh slice,
// never in the relay arena; counts and dangling mass join the worker's
// partial. It returns the survivors' combined mass.
func (j *Job) compensateOn(fill map[int][]int, lost []int, surviving float64) (mass float64, err error) {
	var mu sync.Mutex
	resps := make(map[int]CompensateResp, len(fill))
	err = onOwners(fill, func(w int, parts []int) error {
		resp, err := j.co.call(w, CompensateReq{Lost: lost, Fill: parts, Surviving: surviving})
		if isTransportError(err) {
			err = &exec.WorkerFailure{Workers: []int{w}, Partitions: j.co.PartitionsOf(w)}
		}
		if err == nil {
			mu.Lock()
			resps[w] = resp.(CompensateResp)
			mu.Unlock()
		}
		return err
	})
	for _, w := range slices.Sorted(maps.Keys(resps)) {
		r := resps[w]
		mass += r.Surviving
		j.resent += r.Messages
		j.partials[w] = partial{dangling: r.Dangling, messages: j.partials[w].messages + r.Messages}
		for _, cols := range r.Remote {
			relayed := j.inbox[cols.Dst]
			if i := slices.IndexFunc(relayed, func(c exec.HostedCols) bool { return c.Src == cols.Src }); i >= 0 {
				relayed[i].Cols = slices.Concat(relayed[i].Cols, cols.Cols)
			} else {
				j.inbox[cols.Dst] = append(relayed, cols)
			}
		}
	}
	return mass, err
}

// ResetToInitial implements recovery.Job (the restart baseline).
func (j *Job) ResetToInitial() error {
	err := onOwners(j.ownersSnapshot(), func(w int, parts []int) error {
		_, err := j.co.call(w, ClearReq{Parts: parts})
		return err
	})
	if err != nil {
		return fmt.Errorf("proc: reset: %v", err)
	}
	j.restartExchange()
	return nil
}

// result collects every partition's committed state into the replica
// and returns it as the hosted job type H that can report it.
func result[H any](j *Job, what string) (h H, err error) {
	h, ok := j.replica.(H)
	if !ok {
		return h, fmt.Errorf("proc: %s job has no %s", j.spec.Kind, what)
	}
	parts, err := j.fetchAll()
	for i := 0; err == nil && i < len(parts); i++ {
		err = j.replica.RestorePartition(parts[i].Part, parts[i].Data)
	}
	if err != nil {
		err = fmt.Errorf("proc: results: %w", err)
	}
	return h, err
}

// Components returns every vertex's component label (CC jobs).
func (j *Job) Components() (map[graph.VertexID]graph.VertexID, error) {
	h, err := result[*cc.Hosted](j, "components")
	if err != nil {
		return nil, err
	}
	return h.Components(), nil
}

// Ranks returns every vertex's rank (PageRank jobs).
func (j *Job) Ranks() (map[graph.VertexID]float64, error) {
	h, err := result[*pagerank.Hosted](j, "ranks")
	if err != nil {
		return nil, err
	}
	return h.RankVector(), nil
}
