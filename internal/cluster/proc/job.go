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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
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
	if err := j.load(co.scratch.plan(co)); err != nil {
		return nil, err
	}
	return j, nil
}

// load makes each call's worker host every partition it owns, the
// call's parts starting in superstep-zero state — the initial placement,
// and every adoption by a replacement or survivor — on every worker at
// once. The adjacency of all of them goes along.
func (j *Job) load(calls []ownerCall) error {
	for i := range calls {
		req := LoadReq{
			Job:           j.spec.Name,
			Kind:          j.spec.Kind,
			NumPartitions: j.numParts,
			Damping:       j.spec.Damping,
			IDs:           j.dense.IDs(),
			Hosted:        j.co.PartitionsOf(calls[i].w),
			Fresh:         calls[i].parts,
		}
		req.Offsets, req.Targets, req.Weights = j.dense.Restrict(j.pt, req.Hosted)
		calls[i].req = req
	}
	if _, err := new(fanout).run(j.co, calls, nil, noWatch); err != nil {
		return fmt.Errorf("proc: loading partitions onto %w", err)
	}
	return nil
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

// ownerCall is one RPC to one worker, made by its process's caller
// goroutine (serveCalls): the partitions the worker owns, the request,
// and the answer. A fan-out keeps one per owner and reuses it; the
// requests of a superstep and of a checkpoint fetch are kept here too,
// and sent by pointer, so they are never boxed. The answer to one of
// those two pointers decodes into the process's relay and views it until
// the process's next call of its kind.
type ownerCall struct {
	w        int
	parts    []int
	req      any // nil: no call to w in this round
	step     StepReq
	fetch    FetchReq
	resp     any
	err      error
	answered bool
	done     chan<- *ownerCall
}

// fanout is the working memory of a round of calls to every owner at
// once: the grouping of the partitions by live owner, the calls, the
// channel their answers come back on, the straggler watchdog, and the
// fetched views in partition order. The coordinator owns one for the job
// holding the relay, so every superstep and checkpoint of every job on
// a coordinator reuses it: a steady one allocates nothing in it.
type fanout struct {
	placement []int       // every partition's owner
	workers   []int       // the live owners, ascending
	calls     []ownerCall // one per live owner, in workers' order
	answers   chan *ownerCall
	watchdog  *time.Timer
	blobs     []PartBlob
}

// noWatch is run's superstep for a round that is no superstep: it
// condemns no straggler.
const noWatch = -1

// plan reads the placement and groups the partitions by live owner, in
// ascending order, into the calls, none of which has a request yet.
func (f *fanout) plan(co *Coordinator) []ownerCall {
	f.placement, f.workers = co.placeInto(f.placement, f.workers)
	for len(f.calls) < len(f.workers) {
		f.calls = append(f.calls, ownerCall{})
	}
	calls := f.calls[:len(f.workers)]
	for i, w := range f.workers {
		calls[i].w, calls[i].parts, calls[i].req, calls[i].resp = w, calls[i].parts[:0], nil, nil
	}
	// Calls to owners no longer there would keep their answers, and the
	// relays of gone processes with them.
	clear(f.calls[len(calls):])
	for p, w := range f.placement {
		if i, ok := slices.BinarySearch(f.workers, w); ok {
			calls[i].parts = append(calls[i].parts, p)
		}
	}
	return calls
}

// run makes every call that has a request at once, each on its worker's
// caller, SIGKILLs the victims while theirs are in flight, and waits for
// every answer. In a superstep (not noWatch) it watches for stragglers:
// once a majority of workers has answered, the rest get a deadline
// relative to the majority's elapsed time. A worker that blows it —
// partitioned inbound so it computes forever unaware, or just wedged —
// is condemned, which closes its connections and aborts its call, so the
// attempt fails over to the normal recovery path instead of stalling the
// whole job at the barrier.
//
// Only a transport failure fails a worker, or being a victim — dead all
// the same if its answer outran the kill: failed lists those, in calls'
// order. A worker that answered an ErrResp is alive and refused the call.
// err is the first error of any call, in calls' order.
func (f *fanout) run(co *Coordinator, calls []ownerCall, victims []int, superstep int) (failed []int, err error) {
	if f.answers == nil {
		// An owner owns a partition, so no round makes more calls.
		f.answers = make(chan *ownerCall, co.NumPartitions())
	}
	pending := 0
	for i := range calls {
		oc := &calls[i]
		oc.resp, oc.err, oc.answered = nil, nil, false
		if oc.req != nil {
			pending++
			co.handTo(co.proc(oc.w), oc, f.answers)
		}
	}
	var killed []int
	for _, w := range victims {
		if co.Kill(w) {
			killed = append(killed, w)
		}
	}
	sent, start := pending, time.Now()
	var straggle <-chan time.Time
	armed := false
	for pending > 0 {
		select {
		case oc := <-f.answers:
			pending--
			oc.answered = true
			if straggle == nil && superstep != noWatch && co.cfg.StragglerFactor > 0 && pending > 0 &&
				(sent-pending)*2 >= sent {
				d := time.Duration(float64(time.Since(start)) * co.cfg.StragglerFactor)
				if d < co.cfg.StragglerMin {
					d = co.cfg.StragglerMin
				}
				straggle, armed = f.arm(d), true
			}
		case <-straggle:
			straggle = nil
			for i := range calls {
				if calls[i].req != nil && !calls[i].answered {
					co.condemn(calls[i].w, fmt.Sprintf("straggling superstep %d beyond the majority deadline", superstep))
				}
			}
		}
	}
	if armed {
		f.watchdog.Stop()
	}
	for i := range calls {
		oc := &calls[i]
		if oc.req == nil {
			continue
		}
		if isTransportError(oc.err) || slices.Contains(killed, oc.w) {
			failed = append(failed, oc.w)
		}
		if oc.err != nil && err == nil {
			err = fmt.Errorf("worker %d: %w", oc.w, oc.err)
		}
	}
	return failed, err
}

// arm starts the straggler watchdog for d and returns its channel.
func (f *fanout) arm(d time.Duration) <-chan time.Time {
	if f.watchdog == nil {
		f.watchdog = time.NewTimer(d)
	} else {
		f.watchdog.Reset(d)
	}
	return f.watchdog.C
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
// everywhere if not. An attempt that lost a worker returns a typed
// *exec.WorkerFailure naming the dead workers, exactly like the
// in-process engine, so iterate.Loop's recovery path is unchanged; one
// that a live worker refused returns its plain error, and no worker is
// failed over for it. A job that no longer holds the relay returns a
// *SupersededError and sends nothing.
func (j *Job) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	if err := j.holdsRelay(); err != nil {
		return iterate.StepStats{}, err
	}
	f := &j.co.scratch
	calls := f.plan(j.co)
	if !slices.Equal(f.placement, j.placement) {
		// Partitions moved since the columns in flight were produced:
		// those workers kept are gone or misplaced, so start over.
		j.rescatter = true
	}
	for i := range calls {
		oc := &calls[i]
		oc.step = StepReq{Superstep: ctx.Superstep, Rescatter: j.rescatter, Dangling: j.dangling, Inbox: oc.step.Inbox[:0]}
		if !j.rescatter {
			for _, p := range oc.parts {
				oc.step.Inbox = append(oc.step.Inbox, j.inbox[p]...)
			}
		}
		oc.req = &oc.step
	}
	// The mid-superstep fault: SIGKILL the victims while their compute
	// RPCs are in flight.
	var victims []int
	if ctx.Fault != nil {
		victims = ctx.Fault.Workers
	}
	failed, err := f.run(j.co, calls, victims, ctx.Superstep)
	for i := 0; err == nil && i < len(calls); i++ {
		if _, ok := calls[i].resp.(*StepResp); !ok {
			err = fmt.Errorf("worker %d answered a StepReq with a %T", calls[i].w, calls[i].resp)
		}
	}
	if err != nil || failed != nil {
		// Abort the attempt wherever it may be held — on every worker not
		// failed, whatever it answered (an abort with nothing held does
		// nothing): committed state and the exchange columns in flight stay
		// as they were, so the attempt can be replayed after recovery.
		for i := range calls {
			calls[i].req = nil
			if !slices.Contains(failed, calls[i].w) {
				calls[i].req = AbortReq{}
			}
		}
		f.run(j.co, calls, nil, noWatch)
		if failed != nil {
			return iterate.StepStats{}, workerFailure(failed, calls)
		}
		return iterate.StepStats{}, fmt.Errorf("proc: superstep %d: %w", ctx.Superstep, err)
	}

	// Everyone answered: the superstep is committed by decision, and each
	// worker learns it from the next request it sees (one that dies first
	// loses state recovery replaces anyway). The attempt's outboxes become
	// the next superstep's inbox; partial scalars are added in worker
	// order so float sums repeat from run to run.
	j.co.owe(f.workers, ctx.Superstep)
	for dst, cols := range j.inbox {
		j.inbox[dst] = cols[:0]
	}
	j.placement, j.rescatter = append(j.placement[:0], f.placement...), false
	var stats iterate.StepStats
	var l1 float64
	folded := false
	for i := range calls {
		w, resp := calls[i].w, calls[i].resp.(*StepResp)
		for _, cols := range resp.Remote {
			j.inbox[cols.Dst] = append(j.inbox[cols.Dst], cols)
		}
		j.partials[w] = partial{dangling: resp.Dangling, messages: resp.Messages}
		l1 += resp.L1
		folded = folded || resp.Folded
		stats.Updates += resp.Updates
	}
	j.combine(f.workers)
	stats.Messages, j.resent = j.pending+j.resent, 0
	if folded {
		j.lastL1 = l1
	}
	if j.spec.Kind == KindPageRank {
		stats.Extra = map[string]float64{"l1": j.lastL1}
	}
	return stats, nil
}

// workerFailure builds the typed failure error of a round: the failed
// workers and every partition they own.
func workerFailure(workers []int, calls []ownerCall) error {
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

// fetchAll has every owner read its partitions' committed state views,
// carrying its debt — one FetchReq each, all at once — and returns them
// in partition order. The views live in the owners' relays until their
// next fetch (see relay). An owner that died (or was condemned) under
// the fetch surfaces as a typed worker failure, so the iteration loop
// enters recovery instead of aborting the run.
func (j *Job) fetchAll() ([]PartBlob, error) {
	f := &j.co.scratch
	calls := f.plan(j.co)
	for i := range calls {
		oc := &calls[i]
		oc.fetch = FetchReq{Parts: oc.parts}
		oc.req = &oc.fetch
	}
	failed, err := f.run(j.co, calls, nil, noWatch)
	if failed != nil {
		return nil, workerFailure(failed, calls)
	}
	f.blobs = f.blobs[:0]
	for i := 0; err == nil && i < len(calls); i++ {
		if r, ok := calls[i].resp.(*FetchResp); ok {
			f.blobs = append(f.blobs, r.Parts...)
		} else {
			err = fmt.Errorf("worker %d answered a FetchReq with a %T", calls[i].w, calls[i].resp)
		}
	}
	if err != nil {
		return nil, err
	}
	slices.SortFunc(f.blobs, func(a, b PartBlob) int { return cmp.Compare(a.Part, b.Part) })
	return f.blobs, nil
}

// SnapshotTo implements recovery.Job: every partition's state view in
// one blob, sorted, so equal distributed states snapshot to equal
// bytes. The blob is written straight into w's free space.
func (j *Job) SnapshotTo(w *bytes.Buffer) error {
	parts, err := j.fetchAll()
	if err != nil {
		return fmt.Errorf("proc: snapshot: %w", err)
	}
	w.Write(appendSnapshot(w.AvailableBuffer(), JobSnapshot{Kind: j.spec.Kind, Parts: parts}))
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
	f := &j.co.scratch
	calls := f.plan(j.co)
	for i := range calls {
		push := make([]PartBlob, 0, len(calls[i].parts))
		for _, p := range calls[i].parts {
			pb, ok := byPart[p]
			if !ok {
				return &SnapshotError{fmt.Sprintf("partition %d is owned by the job but missing from the blob", p)}
			}
			if err := j.replica.RestorePartition(p, pb.Data); err != nil {
				return &SnapshotError{err.Error()}
			}
			push = append(push, pb)
		}
		calls[i].req = RestoreReq{Parts: push}
	}
	if _, err := f.run(j.co, calls, nil, noWatch); err != nil {
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
	f := &j.co.scratch
	calls := f.plan(j.co)
	for i := range calls {
		var ps []int
		for _, p := range parts {
			if f.placement[p] == calls[i].w {
				ps = append(ps, p)
			}
		}
		if ps != nil {
			calls[i].req = ClearReq{Parts: ps}
		}
	}
	f.run(j.co, calls, nil, noWatch)
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
	f := &j.co.scratch
	calls := f.plan(j.co)
	// A surviving partition kept its columns if it stayed where they were
	// produced and its worker adopted nothing.
	rebuilt := false
	for p, w := range f.placement {
		rebuilt = rebuilt || !slices.Contains(lost, p) && j.placement != nil && j.placement[p] != w
	}
	fill := make([][]int, len(calls))
	for i := range calls {
		survives := false
		for _, p := range calls[i].parts {
			if slices.Contains(lost, p) {
				fill[i] = append(fill[i], p)
			} else {
				survives = true
			}
		}
		rebuilt = rebuilt || survives && fill[i] != nil
		if survives {
			calls[i].req = CompensateReq{Lost: lost}
		}
	}
	for dst, cols := range j.inbox {
		j.inbox[dst] = slices.DeleteFunc(cols, func(c exec.HostedCols) bool { return slices.Contains(lost, c.Src) })
	}
	surviving, err := j.compensateOn(calls)
	if err == nil {
		for i := range calls {
			calls[i].req = nil
			if fill[i] != nil {
				calls[i].req = CompensateReq{Lost: lost, Fill: fill[i], Surviving: surviving}
			}
		}
		_, err = j.compensateOn(calls)
	}
	if err != nil || rebuilt {
		j.restartExchange()
	} else {
		j.combine(j.co.Workers())
		j.placement, j.lastL1 = append(j.placement[:0], f.placement...), math.MaxFloat64
	}
	if err != nil {
		return fmt.Errorf("proc: compensation: %w", err)
	}
	return nil
}

// compensateOn makes the calls' compensation requests and takes in the
// answers in worker order: new rows join the columns relayed for their
// pair in a fresh slice, never in the relay arena; counts and dangling
// mass join the worker's partial. It returns the survivors' combined
// mass.
func (j *Job) compensateOn(calls []ownerCall) (mass float64, err error) {
	failed, err := j.co.scratch.run(j.co, calls, nil, noWatch)
	if failed != nil {
		err = workerFailure(failed, calls)
	}
	for i := range calls {
		if calls[i].req == nil || calls[i].err != nil {
			continue
		}
		w, r := calls[i].w, calls[i].resp.(CompensateResp)
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
	f := &j.co.scratch
	calls := f.plan(j.co)
	for i := range calls {
		calls[i].req = ClearReq{Parts: calls[i].parts}
	}
	if _, err := f.run(j.co, calls, nil, noWatch); err != nil {
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
