package iterate_test

// External test package: these properties drive the real CC / PageRank
// workloads (which import iterate) against the full policy matrix, so
// they cannot live in package iterate itself.

import (
	"fmt"
	"testing"
	"testing/quick"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
)

// committedEpochObserver wraps the async checkpoint policy and checks
// the fence invariant at every failure: the superstep the policy
// resumes at is exactly one past a fully committed epoch in the store
// (or zero when nothing committed yet). A torn or merely in-flight
// epoch must never be the restore target.
type committedEpochObserver struct {
	inner recovery.Policy
	store checkpoint.Store
	name  string
	// violation records the first broken invariant; the property reads
	// it after the run (quick.Check wants a bool, not t.Fatal).
	violation error
	failures  int
}

func (o *committedEpochObserver) PolicyName() string { return o.inner.PolicyName() }
func (o *committedEpochObserver) Setup(job recovery.Job) error {
	o.name = job.Name()
	return o.inner.Setup(job)
}
func (o *committedEpochObserver) AfterSuperstep(job recovery.Job, superstep int) error {
	return o.inner.AfterSuperstep(job, superstep)
}
func (o *committedEpochObserver) Overhead() recovery.Overhead { return o.inner.Overhead() }

// Finish must forward explicitly: iterate.Loop type-asserts the policy
// to recovery.Finisher, and o.inner is an AsyncCheckpoint with
// background commits to drain at normal termination.
func (o *committedEpochObserver) Finish(job recovery.Job) error {
	if fin, ok := o.inner.(recovery.Finisher); ok {
		return fin.Finish(job)
	}
	return nil
}

func (o *committedEpochObserver) OnFailure(job recovery.Job, f recovery.Failure) (int, error) {
	o.failures++
	resumeAt, err := o.inner.OnFailure(job, f)
	if err != nil {
		return resumeAt, err
	}
	// LoadCommitted only ever surfaces epochs whose commit record and
	// every referenced partition blob are durable, so comparing against
	// it is the torn-state check.
	rec, _, ok, lerr := checkpoint.LoadCommitted(o.store, o.name)
	if lerr != nil {
		o.violation = fmt.Errorf("superstep %d: load committed: %v", f.Superstep, lerr)
		return resumeAt, err
	}
	switch {
	case !ok && resumeAt != 0:
		o.violation = fmt.Errorf("superstep %d: resumed at %d with no committed epoch", f.Superstep, resumeAt)
	case ok && resumeAt != rec.Superstep+1:
		o.violation = fmt.Errorf("superstep %d: resumed at %d, committed epoch is superstep %d",
			f.Superstep, resumeAt, rec.Superstep)
	case ok && resumeAt > f.Superstep+1:
		o.violation = fmt.Errorf("superstep %d: resumed in the future at %d", f.Superstep, resumeAt)
	}
	return resumeAt, err
}

// asyncPolicies builds the policy matrix for one trial: the three
// synchronous baselines plus the async pipeline (plain and incremental),
// each async variant wrapped in the committed-epoch observer. Policies
// are single-use — build a fresh matrix per trial.
func asyncPolicies(par int) (policies []recovery.Policy, observers []*committedEpochObserver, names []string) {
	observe := func(c *recovery.AsyncCheckpoint, store checkpoint.Store) recovery.Policy {
		o := &committedEpochObserver{inner: c, store: store}
		observers = append(observers, o)
		return o
	}
	asyncStore := checkpoint.NewMemoryStore()
	incrStore := checkpoint.NewMemoryStore()
	incr := recovery.NewAsyncCheckpoint(1, incrStore, par)
	incr.Incremental = true
	policies = []recovery.Policy{
		recovery.Optimistic{},
		recovery.NewCheckpoint(2, checkpoint.NewMemoryStore()),
		recovery.Restart{},
		observe(recovery.NewAsyncCheckpoint(1, asyncStore, par), asyncStore),
		observe(incr, incrStore),
	}
	names = []string{"optimistic", "checkpoint", "restart", "async", "async-incremental"}
	return policies, observers, names
}

// Property: with the async checkpoint interval at 1, every superstep
// barrier leaves an encode/commit racing the next superstep, so any
// injected failure lands while a checkpoint is in flight. Under every
// policy the run must still terminate with the union-find ground truth,
// and the async policies must only ever restore committed epochs.
func TestAsyncCheckpointFailuresReachGroundTruth_CC(t *testing.T) {
	asyncFailures := 0
	f := func(seed int64, probRaw uint8) bool {
		prob := float64(probRaw%45)/100.0 + 0.05
		g := gen.Components(3, 30, 0.08, seed)
		truth := ref.ConnectedComponents(g)

		policies, observers, names := asyncPolicies(4)
		for i, pol := range policies {
			out, err := cc.Run(g, cc.Options{
				Parallelism: 4,
				Policy:      pol,
				Injector:    failure.NewChaos(seed+int64(i)).WithProbabilities(prob, 0, 0).WithMaxFailures(3),
				MaxTicks:    2000,
			})
			if err != nil {
				t.Logf("seed %d policy %s: %v", seed, names[i], err)
				return false
			}
			if !componentsEqual(out.Components, truth) {
				t.Logf("seed %d policy %s: wrong components", seed, names[i])
				return false
			}
		}
		for _, o := range observers {
			asyncFailures += o.failures
			if o.violation != nil {
				t.Logf("seed %d: %v", seed, o.violation)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	// The property is vacuous if the schedule never actually struck the
	// async pipeline while epochs were in flight.
	if asyncFailures == 0 {
		t.Fatal("no failures hit the async checkpoint policies across all trials")
	}
}

// Property: same matrix for PageRank — the power-iteration ground truth
// is reached within tight L1 distance under every policy, failures
// racing in-flight async epochs included.
func TestAsyncCheckpointFailuresReachGroundTruth_PageRank(t *testing.T) {
	asyncFailures := 0
	f := func(seed int64, probRaw uint8) bool {
		prob := float64(probRaw%40)/100.0 + 0.05
		g := gen.Twitter(200, seed)
		truth, _ := ref.PageRank(g, ref.PageRankOptions{})

		policies, observers, names := asyncPolicies(4)
		for i, pol := range policies {
			out, err := pagerank.Run(g, pagerank.Options{
				Parallelism:   4,
				MaxIterations: 200,
				Epsilon:       1e-9,
				Policy:        pol,
				Injector:      failure.NewChaos(seed+int64(i)).WithProbabilities(prob, 0, 0).WithMaxFailures(3),
				MaxTicks:      2000,
			})
			if err != nil {
				t.Logf("seed %d policy %s: %v", seed, names[i], err)
				return false
			}
			if l1 := ref.L1(out.Ranks, truth); l1 > 1e-6 {
				t.Logf("seed %d policy %s: L1 to truth %.2e", seed, names[i], l1)
				return false
			}
		}
		for _, o := range observers {
			asyncFailures += o.failures
			if o.violation != nil {
				t.Logf("seed %d: %v", seed, o.violation)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
	if asyncFailures == 0 {
		t.Fatal("no failures hit the async checkpoint policies across all trials")
	}
}

func componentsEqual(got, want map[graph.VertexID]graph.VertexID) bool {
	if len(got) != len(want) {
		return false
	}
	for v, c := range want {
		if got[v] != c {
			return false
		}
	}
	return true
}
