// Package als implements low-rank matrix factorization with
// alternating least squares as a bulk-iteration dataflow. It is the
// third algorithm class that the underlying work (Schelter et al.,
// CIKM 2013) recovers optimistically: the iteration state is the pair
// of factor matrices, and the compensation function re-initializes
// lost factor vectors with (seeded) random values — a consistent state
// from which ALS converges again, because each half-step recomputes one
// side entirely from the other side and the immutable ratings.
package als

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"optiflow/internal/cluster"
	"optiflow/internal/dataflow"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/state"
)

// Rating is one observed matrix entry.
type Rating struct {
	User, Item uint64
	Value      float64
}

// Ratings is an immutable sparse rating matrix with per-user and
// per-item views.
type Ratings struct {
	entries []Rating
	byUser  map[uint64][]Rating
	byItem  map[uint64][]Rating
	users   []uint64
	items   []uint64
}

// NewRatings indexes a list of rating entries.
func NewRatings(entries []Rating) *Ratings {
	r := &Ratings{
		entries: entries,
		byUser:  make(map[uint64][]Rating),
		byItem:  make(map[uint64][]Rating),
	}
	for _, e := range entries {
		r.byUser[e.User] = append(r.byUser[e.User], e)
		r.byItem[e.Item] = append(r.byItem[e.Item], e)
	}
	for u := range r.byUser {
		r.users = append(r.users, u)
	}
	for i := range r.byItem {
		r.items = append(r.items, i)
	}
	return r
}

// NumRatings returns the number of observed entries.
func (r *Ratings) NumRatings() int { return len(r.entries) }

// NumUsers returns the number of distinct users.
func (r *Ratings) NumUsers() int { return len(r.users) }

// NumItems returns the number of distinct items.
func (r *Ratings) NumItems() int { return len(r.items) }

// Factors is a dense factor vector.
type Factors []float64

// ALS is an alternating-least-squares factorization job. It implements
// recovery.Job.
type ALS struct {
	ratings *Ratings
	rank    int
	lambda  float64
	par     int
	seed    int64
	engine  *exec.Engine

	userFactors *state.Store[Factors]
	itemFactors *state.Store[Factors]
	userParts   [][]uint64 // partition -> user IDs
	itemParts   [][]uint64 // partition -> item IDs

	// Per-half-step caches: the rating blocks are derived from the
	// immutable ratings, and the plans read factor state at run time,
	// so both survive across supersteps.
	userBlocks [][]block // partition -> user-side rating blocks
	itemBlocks [][]block
	preparedU  *exec.Prepared
	preparedI  *exec.Prepared

	lastRMSE float64
}

// Config parameterises an ALS run.
type Config struct {
	// Rank is the latent dimensionality (10 if zero).
	Rank int
	// Lambda is the L2 regularisation weight (0.05 if zero).
	Lambda float64
	// Parallelism is the task/partition count (4 if zero).
	Parallelism int
	// Seed drives factor initialisation and compensation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rank <= 0 {
		c.Rank = 10
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.05
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// New prepares an ALS job over the given ratings.
func New(ratings *Ratings, cfg Config) *ALS {
	cfg = cfg.withDefaults()
	a := &ALS{
		ratings:     ratings,
		rank:        cfg.Rank,
		lambda:      cfg.Lambda,
		par:         cfg.Parallelism,
		seed:        cfg.Seed,
		engine:      &exec.Engine{Parallelism: cfg.Parallelism},
		userFactors: state.NewStore[Factors]("user-factors", cfg.Parallelism),
		itemFactors: state.NewStore[Factors]("item-factors", cfg.Parallelism),
		userParts:   make([][]uint64, cfg.Parallelism),
		itemParts:   make([][]uint64, cfg.Parallelism),
		lastRMSE:    math.Inf(1),
	}
	for _, u := range ratings.users {
		p := graph.Partition(graph.VertexID(u), cfg.Parallelism)
		a.userParts[p] = append(a.userParts[p], u)
	}
	for _, i := range ratings.items {
		p := graph.Partition(graph.VertexID(i), cfg.Parallelism)
		a.itemParts[p] = append(a.itemParts[p], i)
	}
	a.seedInitial()
	return a
}

// initVector derives a deterministic pseudo-random factor vector for an
// entity, so initialisation and compensation are reproducible and
// identical for the same entity.
func (a *ALS) initVector(id uint64, item bool) Factors {
	mix := a.seed ^ int64(graph.Hash(id))
	if item {
		mix ^= 0x5851f42d4c957f2d
	}
	rng := rand.New(rand.NewSource(mix))
	v := make(Factors, a.rank)
	for i := range v {
		v[i] = rng.Float64() * 0.1
	}
	return v
}

func (a *ALS) seedInitial() {
	for _, u := range a.ratings.users {
		a.userFactors.Put(u, a.initVector(u, false))
	}
	for _, i := range a.ratings.items {
		a.itemFactors.Put(i, a.initVector(i, true))
	}
	a.lastRMSE = math.Inf(1)
}

// Name implements recovery.Job.
func (a *ALS) Name() string { return "als" }

// LastRMSE returns the training RMSE measured after the last superstep.
func (a *ALS) LastRMSE() float64 { return a.lastRMSE }

// Predict returns the model's estimate for a (user, item) pair.
func (a *ALS) Predict(user, item uint64) float64 {
	uf, ok1 := a.userFactors.Get(user)
	vf, ok2 := a.itemFactors.Get(item)
	if !ok1 || !ok2 {
		return 0
	}
	return dot(uf, vf)
}

// RMSE computes the root-mean-square error over the training ratings.
func (a *ALS) RMSE() float64 {
	if a.ratings.NumRatings() == 0 {
		return 0
	}
	var sse float64
	for _, e := range a.ratings.entries {
		d := a.Predict(e.User, e.Item) - e.Value
		sse += d * d
	}
	return math.Sqrt(sse / float64(a.ratings.NumRatings()))
}

// globalTable exposes an entire factor store read-only to every
// partition — the analogue of broadcasting the fixed side of the
// half-step, which is loop-invariant within the half-step.
type globalTable struct{ s *state.Store[Factors] }

// Get implements dataflow.Table.
func (g globalTable) Get(key uint64) (any, bool) {
	v, ok := g.s.Get(key)
	if !ok {
		return nil, false
	}
	return v, true
}

type block struct {
	id     uint64
	others []uint64
	values []float64
}

// halfStepPlan builds the dataflow of one half-step: solve every
// entity of one side against the fixed factors of the other side.
func (a *ALS) HalfStepPlan(users bool) *dataflow.Plan {
	side := "items"
	if users {
		side = "users"
	}
	plan := dataflow.NewPlan("als-solve-" + side)

	byEntity := func(rec any) uint64 { return rec.(block).id }
	var fixed *state.Store[Factors]
	var solved *state.Store[Factors]
	if users {
		fixed, solved = a.itemFactors, a.userFactors
	} else {
		fixed, solved = a.userFactors, a.itemFactors
	}

	// Build (or fetch) the per-partition blocks here, while plan
	// construction is still single-threaded: the source UDF below runs
	// as P concurrent tasks and must only read the finished slice.
	perPart := a.ratingBlocks(users)
	blocks := plan.Source("rating-blocks", func(part, nparts int, emit dataflow.Emit) error {
		for _, b := range perPart[part] {
			emit(b)
		}
		return nil
	})

	solvedDS := blocks.LookupJoin("solve-"+side, "fixed-factors", byEntity,
		func(int, int) dataflow.Table { return globalTable{s: fixed} },
		func(rec any, table dataflow.Table, emit dataflow.Emit) {
			b := rec.(block)
			vecs := make([]Factors, 0, len(b.others))
			vals := make([]float64, 0, len(b.values))
			for j, o := range b.others {
				if f, ok := table.Get(o); ok {
					vecs = append(vecs, f.(Factors))
					vals = append(vals, b.values[j])
				}
			}
			if len(vecs) == 0 {
				return
			}
			emit(factorRec{id: b.id, vec: solveNormalEquations(vecs, vals, a.lambda)})
		})

	solvedDS.Sink("store-factors", func(_ int, rec any) error {
		fr := rec.(factorRec)
		solved.Put(fr.id, fr.vec)
		return nil
	})
	plan.MarkState("store-factors")
	plan.CompensateExternally("factor re-initialisation via recovery.Job.Compensate")
	return plan
}

type factorRec struct {
	id  uint64
	vec Factors
}

// ratingBlocks returns one side's per-partition rating blocks, building
// them on first use. The blocks depend only on the immutable ratings,
// so every later superstep reuses them instead of re-deriving the
// slices from the rating index. Not safe for concurrent first calls:
// callers invoke it during plan construction, never from plan tasks.
func (a *ALS) ratingBlocks(users bool) [][]block {
	cached := &a.itemBlocks
	parts, grouped := a.itemParts, a.ratings.byItem
	if users {
		cached = &a.userBlocks
		parts, grouped = a.userParts, a.ratings.byUser
	}
	if *cached != nil {
		return *cached
	}
	out := make([][]block, len(parts))
	for part, ids := range parts {
		bs := make([]block, 0, len(ids))
		for _, id := range ids {
			rs := grouped[id]
			b := block{id: id, others: make([]uint64, len(rs)), values: make([]float64, len(rs))}
			for j, r := range rs {
				other := r.Item
				if !users {
					other = r.User
				}
				b.others[j] = other
				b.values[j] = r.Value
			}
			bs = append(bs, b)
		}
		out[part] = bs
	}
	*cached = out
	return out
}

// Step implements the loop body: one full ALS iteration (user
// half-step, then item half-step), followed by the RMSE measurement.
// A mid-superstep abort needs no reconciliation: each half-step
// recomputes one factor side entirely from the other side and the
// immutable ratings, so a partially rewritten side is still a valid
// state the retried attempt overwrites wholesale. The fault is armed
// for whichever half-step is running when the threshold is crossed
// (each plan run counts its own records).
func (a *ALS) Step(ctx *iterate.Context) (iterate.StepStats, error) {
	if a.preparedU == nil {
		p, err := a.engine.Prepare(a.HalfStepPlan(true))
		if err != nil {
			return iterate.StepStats{}, fmt.Errorf("als: user half-step: %v", err)
		}
		a.preparedU = p
	}
	if a.preparedI == nil {
		p, err := a.engine.Prepare(a.HalfStepPlan(false))
		if err != nil {
			return iterate.StepStats{}, fmt.Errorf("als: item half-step: %v", err)
		}
		a.preparedI = p
	}
	statsU, err := a.preparedU.RunWithFault(ctx.ScheduledFault())
	if err != nil {
		// %w keeps *exec.WorkerFailure visible to the iteration driver.
		return iterate.StepStats{}, fmt.Errorf("als: user half-step: %w", err)
	}
	statsI, err := a.preparedI.RunWithFault(ctx.ScheduledFault())
	if err != nil {
		return iterate.StepStats{}, fmt.Errorf("als: item half-step: %w", err)
	}
	a.lastRMSE = a.RMSE()
	return iterate.StepStats{
		Messages: statsU.Outputs("rating-blocks") + statsI.Outputs("rating-blocks"),
		Updates:  statsU.Outputs("solve-users") + statsI.Outputs("solve-items"),
		Extra:    map[string]float64{"rmse": a.lastRMSE},
	}, nil
}

// SnapshotTo implements recovery.Job.
func (a *ALS) SnapshotTo(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(a.lastRMSE); err != nil {
		return fmt.Errorf("als: encoding snapshot: %v", err)
	}
	if err := a.userFactors.EncodeTo(enc); err != nil {
		return err
	}
	return a.itemFactors.EncodeTo(enc)
}

// RestoreFrom implements recovery.Job.
func (a *ALS) RestoreFrom(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&a.lastRMSE); err != nil {
		return fmt.Errorf("als: decoding snapshot: %v", err)
	}
	if err := a.userFactors.DecodeFrom(dec); err != nil {
		return err
	}
	return a.itemFactors.DecodeFrom(dec)
}

// ClearPartitions implements recovery.Job: a crashed worker loses its
// partitions of both factor matrices.
func (a *ALS) ClearPartitions(parts []int) {
	for _, p := range parts {
		a.userFactors.ClearPartition(p)
		a.itemFactors.ClearPartition(p)
	}
}

// Compensate implements recovery.Job: lost factor vectors are
// re-initialized with the same seeded random values used at startup —
// the CIKM'13 compensation for matrix factorization.
func (a *ALS) Compensate(lost []int) error {
	for _, p := range lost {
		for _, u := range a.userParts[p] {
			a.userFactors.Put(u, a.initVector(u, false))
		}
		for _, i := range a.itemParts[p] {
			a.itemFactors.Put(i, a.initVector(i, true))
		}
	}
	a.lastRMSE = math.Inf(1)
	return nil
}

// ResetToInitial implements recovery.Job.
func (a *ALS) ResetToInitial() error {
	a.userFactors.ClearAll()
	a.itemFactors.ClearAll()
	a.seedInitial()
	return nil
}

// Options configure a full Run (see cc.Options for field semantics).
type Options struct {
	Config
	Workers       int
	MaxIterations int
	// Epsilon stops once the RMSE improvement per iteration drops below
	// it (0 disables early stopping).
	Epsilon  float64
	Policy   recovery.Policy
	Injector failure.Injector
	OnSample func(iterate.Sample)
	Probe    func(job *ALS, s iterate.Sample)
	MaxTicks int
}

// Result bundles the loop outcome with the trained model.
type Result struct {
	*iterate.Result
	Model   *ALS
	Cluster cluster.Interface
}

// Run trains the factorization until MaxIterations or RMSE plateau.
func Run(ratings *Ratings, opts Options) (*Result, error) {
	cfg := opts.Config.withDefaults()
	if opts.Workers <= 0 {
		opts.Workers = cfg.Parallelism
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 15
	}
	if opts.Policy == nil {
		opts.Policy = recovery.Optimistic{}
	}
	job := New(ratings, cfg)
	cl := cluster.New(opts.Workers, cfg.Parallelism)

	prevRMSE := math.Inf(1)
	var converged func(int) bool
	if opts.Epsilon > 0 {
		converged = func(int) bool {
			improvement := prevRMSE - job.lastRMSE
			prevRMSE = job.lastRMSE
			return improvement >= 0 && improvement < opts.Epsilon && !math.IsInf(job.lastRMSE, 1)
		}
	}

	loop := &iterate.Loop{
		Name:     job.Name(),
		Step:     job.Step,
		Done:     iterate.BulkDone(opts.MaxIterations, converged),
		Job:      job,
		Policy:   opts.Policy,
		Cluster:  cl,
		Injector: opts.Injector,
		MaxTicks: opts.MaxTicks,
		OnSample: func(s iterate.Sample) {
			if opts.OnSample != nil {
				opts.OnSample(s)
			}
			if opts.Probe != nil {
				opts.Probe(job, s)
			}
		},
	}
	res, err := loop.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Model: job, Cluster: cl}, nil
}

func dot(a, b Factors) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solveNormalEquations solves (V^T V + lambda*n*I) x = V^T r for one
// entity: vecs are the fixed-side factor vectors of its ratings, vals
// the observed values. Gaussian elimination with partial pivoting on
// the k x k normal matrix.
func solveNormalEquations(vecs []Factors, vals []float64, lambda float64) Factors {
	k := len(vecs[0])
	A := make([][]float64, k)
	for i := range A {
		A[i] = make([]float64, k+1)
	}
	for r, v := range vecs {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				A[i][j] += v[i] * v[j]
			}
			A[i][k] += v[i] * vals[r]
		}
	}
	reg := lambda * float64(len(vecs))
	for i := 0; i < k; i++ {
		A[i][i] += reg
	}

	// Forward elimination with partial pivoting.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		A[col], A[pivot] = A[pivot], A[col]
		if A[col][col] == 0 {
			continue // singular direction; regularisation makes this rare
		}
		for r := col + 1; r < k; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c <= k; c++ {
				A[r][c] -= f * A[col][c]
			}
		}
	}
	// Back substitution.
	x := make(Factors, k)
	for i := k - 1; i >= 0; i-- {
		if A[i][i] == 0 {
			x[i] = 0
			continue
		}
		s := A[i][k]
		for j := i + 1; j < k; j++ {
			s -= A[i][j] * x[j]
		}
		x[i] = s / A[i][i]
	}
	return x
}
