package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc"
	"optiflow/internal/graph"
)

// config is one run of one workload.
type config struct {
	wl   workload
	sc   scale
	seed int64
	// budget bounds the whole run — set-up repetitions, warm-up and
	// measured rounds — unless rounds fixes the count instead.
	budget time.Duration
	rounds int
	// traced adds the per-layer pass: every round runs each variant
	// bare and then wrapped in the timing decorators.
	traced bool
	// keepSpans is how many traced rounds keep their spans for the span
	// file; later rounds are folded into the layer metrics and dropped.
	keepSpans int
}

const minRounds = 3

// setupSample times one full set-up: what a user pays before the first
// superstep runs.
type setupSample struct {
	gen, dense, clusterStart, build time.Duration
}

func (s setupSample) total() time.Duration { return s.gen + s.dense + s.clusterStart + s.build }

// setUp generates the graph from the seed, builds its CSR form, starts
// a cluster and constructs one job on it (which in proc mode scatters
// the partitions to the workers). The caller owns the returned proc
// cluster (nil in inproc mode).
func (b *bench) setUp(tr *tracer) (s setupSample, g *graph.Graph, pc *procCluster, err error) {
	s.gen, _ = tr.timed("graph.gen", func() error { g = b.wl.graph(b.sc, b.seed); return nil })
	s.dense, _ = tr.timed("graph.dense", func() error { g.Dense(); return nil })
	s.clusterStart, err = tr.timed("cluster.start", func() (err error) {
		if b.wl.proc {
			pc, err = b.procs.start(numWorkers, numPartitions)
		} else {
			cluster.New(numWorkers, numPartitions)
		}
		return err
	})
	if err != nil {
		return s, nil, nil, fmt.Errorf("starting cluster: %w", err)
	}
	s.build, err = tr.timed("job.load", func() (err error) {
		var co *proc.Coordinator
		if pc != nil {
			co = pc.Coordinator
		}
		_, err = b.wl.buildJob(g, co)
		return err
	})
	if err != nil && pc != nil {
		pc.shutdown()
		pc = nil
	}
	return s, g, pc, err
}

// repeatSetUp times one more set-up and discards what it built.
func (b *bench) repeatSetUp(tr *tracer) (setupSample, error) {
	runtime.GC() // as before every job: start from a collected heap
	s, _, pc, err := b.setUp(tr)
	if pc != nil {
		if cerr := pc.shutdown(); err == nil {
			err = cerr
		}
	}
	return s, err
}

// measurement is everything a run of one workload collected.
type measurement struct {
	cfg    config
	g      graphInfo
	setups []setupSample
	// plain and traced hold one sample per variant per measured round,
	// so index r of every variant belongs to the same round.
	plain  map[string][]jobSample
	traced map[string][]jobSample
	layers *layerAgg
	spans  []span

	rounds    int
	attempted int
	failed    int

	sharedJobs      int     // jobs the shared proc cluster ran
	sharedWorkerCPU float64 // its workers' CPU seconds, read once reaped
	sharedNet       cluster.NetStats
	workerPeakRSS   float64
	driverPeakRSS   float64
	elapsed         time.Duration
}

type graphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// measure runs one workload: set-up, the reference result, one
// discarded warm-up round, then rounds — every variant in shuffled
// order, then one more set-up — until the budget is spent.
func measure(cfg config, procs *procSet) (*measurement, error) {
	begin := time.Now()
	m := &measurement{
		cfg:    cfg,
		plain:  make(map[string][]jobSample),
		traced: make(map[string][]jobSample),
		layers: newLayerAgg(),
	}
	b := &bench{wl: cfg.wl, sc: cfg.sc, seed: cfg.seed, procs: procs, epoch: begin,
		victim: int(uint64(cfg.seed) % numWorkers)}

	// The first set-up makes the graph and, in proc mode, the cluster
	// the failure-free jobs share. Its own time is not a sample: it runs
	// in a cold process. setup_s comes from the set-up every measured
	// round repeats.
	var err error
	if _, b.g, b.shared, err = b.setUp(nil); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.wl.name, err)
	}
	defer func() {
		if b.shared != nil { // an error path left the shared cluster up
			b.shared.shutdown()
		}
	}()
	m.g = graphInfo{Vertices: b.g.NumVertices(), Edges: b.g.NumEdges()}
	if cfg.wl.algo == algoPageRank {
		m.g.Name = fmt.Sprintf("gen.Twitter(%d, %d)", cfg.sc.twitterN, cfg.seed)
		b.refRanks, _ = ref.PageRank(b.g, ref.PageRankOptions{Damping: prDamping})
	} else {
		m.g.Name = fmt.Sprintf("gen.Grid(%d, %d)", cfg.sc.gridSide, cfg.sc.gridSide)
		b.refLabels = ref.ConnectedComponents(b.g)
	}

	variants := endToEndVariants
	if cfg.traced && !cfg.wl.proc {
		variants = append(append([]variant(nil), variants...), asyncVariant)
	}

	// pass runs every variant once, in an order shuffled anew each round
	// (rotation would not do: every variant would keep its predecessor,
	// and inherit that job's caches and heap, in every round).
	run := 0
	order := rand.New(rand.NewSource(cfg.seed))
	pass := func(r int, traced, record bool) {
		for _, i := range order.Perm(len(variants)) {
			v := variants[i]
			run++
			s := b.runJob(v, run, traced)
			m.attempted++
			if b.wl.proc && !v.fail {
				m.sharedJobs++
			}
			if s.err != nil {
				m.failed++
				fmt.Fprintf(os.Stderr, "benchmark: %s/%s (run %d) failed: %v\n", cfg.wl.name, v.name, run, s.err)
			}
			if !record {
				continue
			}
			if !traced {
				m.plain[v.name] = append(m.plain[v.name], s)
				continue
			}
			if s.err == nil {
				m.layers.fold(s)
			}
			if r < cfg.keepSpans {
				m.spans = append(m.spans, s.spans...)
			}
			s.spans = nil
			m.traced[v.name] = append(m.traced[v.name], s)
		}
	}

	// Warm-up: one bare round, discarded, pages in the workers and grows
	// the heaps.
	pass(0, false, false)
	var longest time.Duration
	for r := 0; ; r++ {
		if cfg.rounds > 0 {
			if r >= cfg.rounds {
				break
			}
		} else if r >= minRounds && time.Since(begin)+longest > cfg.budget {
			break
		}
		start := time.Now()
		pass(r, false, true)
		if cfg.traced {
			pass(r, true, true)
		}
		var tr *tracer
		if r < cfg.keepSpans {
			run++
			tr = newTracer(begin, run, cfg.wl.name, "setup")
		}
		setup, err := b.repeatSetUp(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.wl.name, err)
		}
		m.setups = append(m.setups, setup)
		if tr != nil {
			m.spans = append(m.spans, tr.finish()...)
		}
		longest = max(longest, time.Since(start))
		m.rounds++
	}

	if b.shared != nil {
		m.sharedNet = b.shared.NetStats()
		m.workerPeakRSS = b.shared.peakRSSMB()
		// A worker's CPU time reaches RUSAGE_CHILDREN when it is reaped,
		// and between these two reads only the shared cluster's are.
		before := cpuSeconds(syscall.RUSAGE_CHILDREN)
		err := b.shared.shutdown()
		b.shared = nil
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.wl.name, err)
		}
		m.sharedWorkerCPU = cpuSeconds(syscall.RUSAGE_CHILDREN) - before
	}
	m.driverPeakRSS = peakRSSMB(os.Getpid())
	m.elapsed = time.Since(begin)
	return m, nil
}

// layerAgg folds the spans of traced jobs into per-layer samples, keyed
// "variant/what", so spans need not be kept for the whole run.
type layerAgg struct {
	vals map[string][]float64
}

func newLayerAgg() *layerAgg { return &layerAgg{vals: make(map[string][]float64)} }

func (a *layerAgg) add(variant, what string, x float64) {
	key := variant + "/" + what
	a.vals[key] = append(a.vals[key], x)
}

func (a *layerAgg) get(variant, what string) []float64 { return a.vals[variant+"/"+what] }

// fold adds one traced job. Span durations are recorded per span under
// the span's name; what only makes sense per job (sums, the first
// step, self time) is recorded once per job.
func (a *layerAgg) fold(s jobSample) {
	v := s.variant
	snapshots := make(map[int]bool) // policy.after spans that took a snapshot
	for _, sp := range s.spans {
		if sp.Name == "job.snapshot" || sp.Name == "job.capture" {
			snapshots[sp.Parent] = true
		}
	}
	var stepSum, hookSum, loopRun, loopSelf time.Duration
	var stepAlloc, saveBytes, snapMax int64
	var steps, hooks, saves int
	stepMin := time.Duration(-1)
	for _, sp := range s.spans {
		d := sp.dur()
		switch sp.Name {
		case "step":
			if steps == 0 {
				a.add(v, "step.first_ms", ms(d))
			}
			steps++
			stepSum += d
			stepAlloc += sp.Bytes
			if stepMin < 0 || d < stepMin {
				stepMin = d
			}
		case "policy.after":
			if snapshots[sp.ID] {
				a.add(v, "policy.after.barrier_ms", ms(d))
			} else {
				hooks++
				hookSum += d
			}
		case "job.snapshot":
			a.add(v, "job.snapshot_ms", ms(d))
			snapMax = max(snapMax, sp.Bytes)
		case "iterate.run":
			loopRun, loopSelf = d, selfTime(s.spans, sp.ID)
		case "store.save":
			saves++
			saveBytes += sp.Bytes
			a.add(v, "store.save_ms", ms(d))
		default:
			a.add(v, sp.Name+"_ms", ms(d))
		}
	}
	if steps > 0 {
		a.add(v, "step.busy_ms_per_superstep", ms(stepSum)/float64(steps))
		a.add(v, "step.alloc_kb_per_superstep", float64(stepAlloc)/1024/float64(steps))
		a.add(v, "step.min_ms", ms(stepMin))
		a.add(v, "step.msgs_per_ms", float64(s.messages)/ms(stepSum))
	}
	if hooks > 0 {
		a.add(v, "policy.after.hook_us", float64(hookSum)/float64(time.Microsecond)/float64(hooks))
	}
	a.add(v, "job.snapshot_bytes_max", float64(snapMax))
	a.add(v, "store.saves", float64(saves))
	a.add(v, "store.save_bytes", float64(saveBytes))
	if loopRun > 0 && s.ticks > 0 {
		a.add(v, "step.share", float64(stepSum)/float64(loopRun))
		a.add(v, "iterate.self_ms_per_tick", ms(loopSelf)/float64(s.ticks))
	}
}

// ok returns the samples of a variant whose job succeeded.
func ok(samples []jobSample) []jobSample {
	out := make([]jobSample, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func mapSamples(samples []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range ok(samples) {
		out = append(out, f(s))
	}
	return out
}

func wallSeconds(s jobSample) float64 { return s.wall.Seconds() }

// committedSupersteps pools Sample.Elapsed (ms) of every committed
// superstep of the successful jobs.
func committedSupersteps(samples []jobSample) []float64 {
	var out []float64
	for _, s := range ok(samples) {
		out = append(out, s.committedMs...)
	}
	return out
}

// ratios pairs the jobs of two variants round by round.
func ratios(num, den []jobSample) []float64 {
	var out []float64
	for r := range min(len(num), len(den)) {
		if num[r].err == nil && den[r].err == nil && den[r].wall > 0 {
			out = append(out, float64(num[r].wall)/float64(den[r].wall))
		}
	}
	return out
}

// endToEnd computes the user-visible metrics from the bare (untraced)
// jobs. Every metric is the median of its samples, except setup_s:
// loading partitions onto freshly spawned workers takes either 2 or
// 10 ms, about equally often, and the median of a two-peaked sample
// jumps between the peaks from run to run. The mean without the
// fastest and the slowest set-up weighs both peaks and is steady.
func (m *measurement) endToEnd() map[string]summary {
	opt := m.plain[vOptimistic]
	setups := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setups[i] = s.total().Seconds()
	}
	setup := summarize(setups)
	setup.Value = trimmedMean(setups)
	return map[string]summary{
		"setup_s":      setup,
		"job_s":        summarize(mapSamples(opt, wallSeconds)),
		"superstep_ms": summarize(committedSupersteps(opt)),
		"msgs_per_s": summarize(mapSamples(opt, func(s jobSample) float64 {
			return float64(s.messages) / s.wall.Seconds()
		})),
		"ff_ratio_optimistic":   summarize(ratios(opt, m.plain[vNone])),
		"ff_ratio_checkpoint":   summarize(ratios(m.plain[vCheckpoint], m.plain[vNone])),
		"job_fail_s_optimistic": summarize(mapSamples(m.plain[vOptimisticFail], wallSeconds)),
		"job_fail_s_checkpoint": summarize(mapSamples(m.plain[vCheckpointFail], wallSeconds)),
		"alloc_mb_per_job": summarize(mapSamples(opt, func(s jobSample) float64 {
			return float64(s.allocBytes) / 1e6
		})),
	}
}

// exactCounts lists, per variant, the counts that must repeat exactly
// from job to job, between the bare and the traced pass, and between
// runs of the same seed. repeat reports whether they did within this
// run.
type exactCounts struct {
	Supersteps int   `json:"supersteps"`
	Ticks      int   `json:"ticks"`
	Messages   int64 `json:"messages"`
	Jobs       int   `json:"jobs"`
	Repeat     bool  `json:"repeat"`
}

func (m *measurement) counts() map[string]exactCounts {
	out := make(map[string]exactCounts)
	for _, pass := range []map[string][]jobSample{m.plain, m.traced} {
		for v, samples := range pass {
			for _, s := range ok(samples) {
				c, seen := out[v]
				if !seen {
					c = exactCounts{Supersteps: s.supersteps, Ticks: s.ticks, Messages: s.messages, Repeat: true}
				} else if c.Supersteps != s.supersteps || c.Ticks != s.ticks || c.Messages != s.messages {
					c.Repeat = false
				}
				c.Jobs++
				out[v] = c
			}
		}
	}
	return out
}

// perLayer computes the single-layer metrics of the traced pass. A
// metric that does not exist in this workload's cluster mode is listed
// in notApplicable and reported as 0.
func (m *measurement) perLayer(e2e map[string]summary) (vals map[string]float64, notApplicable []string) {
	a := m.layers
	med := func(variant, what string) float64 { return median(a.get(variant, what)) }
	opt := m.plain[vOptimistic]
	counts := m.counts()
	setupMs := func(f func(setupSample) time.Duration) float64 {
		xs := make([]float64, len(m.setups))
		for i, s := range m.setups {
			xs[i] = ms(f(s))
		}
		return median(xs)
	}
	buildMs := setupMs(func(s setupSample) time.Duration { return s.build })
	perTick := func(f func(jobSample) uint64) float64 {
		return median(mapSamples(opt, func(s jobSample) float64 { return float64(f(s)) / float64(max(s.ticks, 1)) }))
	}
	acquire := append(append([]float64(nil), a.get(vOptimisticFail, "cluster.acquire_ms")...),
		a.get(vCheckpointFail, "cluster.acquire_ms")...)
	jobS := e2e["job_s"].Value
	tracedJobS := median(mapSamples(m.traced[vOptimistic], wallSeconds))

	vals = map[string]float64{
		"graph.gen_ms":     setupMs(func(s setupSample) time.Duration { return s.gen }),
		"graph.dense_ms":   setupMs(func(s setupSample) time.Duration { return s.dense }),
		"cluster.start_ms": setupMs(func(s setupSample) time.Duration { return s.clusterStart }),

		"step.busy_ms_per_superstep":  med(vOptimistic, "step.busy_ms_per_superstep"),
		"step.first_ms":               med(vOptimistic, "step.first_ms"),
		"step.share":                  med(vOptimistic, "step.share"),
		"step.msgs_per_ms":            med(vOptimistic, "step.msgs_per_ms"),
		"step.alloc_kb_per_superstep": med(vOptimistic, "step.alloc_kb_per_superstep"),

		"iterate.supersteps":       float64(counts[vOptimistic].Supersteps),
		"iterate.ticks":            float64(counts[vOptimistic].Ticks),
		"iterate.self_ms_per_tick": med(vOptimistic, "iterate.self_ms_per_tick"),
		"iterate.superstep_ms_p90": percentile(committedSupersteps(opt), 90),

		"recovery.hook_us_per_superstep_optimistic": med(vOptimistic, "policy.after.hook_us"),
		"recovery.barrier_ms_per_checkpoint":        med(vCheckpoint, "policy.after.barrier_ms"),
		"recovery.onfailure_ms_optimistic":          med(vOptimisticFail, "policy.onfailure_ms"),
		"recovery.onfailure_ms_checkpoint":          med(vCheckpointFail, "policy.onfailure_ms"),
		"recovery.extra_ticks_optimistic":           float64(counts[vOptimisticFail].Ticks - counts[vOptimistic].Ticks),
		"recovery.extra_ticks_checkpoint":           float64(counts[vCheckpointFail].Ticks - counts[vCheckpoint].Ticks),

		"state.snapshot_ms":    med(vCheckpoint, "job.snapshot_ms"),
		"state.snapshot_bytes": med(vCheckpoint, "job.snapshot_bytes_max"),
		"state.restore_ms":     med(vCheckpointFail, "job.restore_ms"),
		"state.compensate_ms":  med(vOptimisticFail, "job.compensate_ms"),
		"state.clear_ms":       med(vOptimisticFail, "job.clear_ms"),

		"checkpoint.saves":              med(vCheckpoint, "store.saves"),
		"checkpoint.save_ms":            med(vCheckpoint, "store.save_ms"),
		"checkpoint.save_bytes_per_job": med(vCheckpoint, "store.save_bytes"),
		"checkpoint.load_ms":            med(vCheckpointFail, "store.load_ms"),

		"cluster.acquire_ms": median(acquire),
		"driver.peak_rss_mb": m.driverPeakRSS,

		"gc.cycles_per_job":   median(mapSamples(opt, func(s jobSample) float64 { return float64(s.gcCycles) })),
		"gc.pause_ms_per_job": median(mapSamples(opt, func(s jobSample) float64 { return ms(s.gcPause) })),
		"trace.overhead_pct":  0,
	}
	if jobS > 0 {
		vals["trace.overhead_pct"] = (tracedJobS/jobS - 1) * 100
	}

	inprocOnly := map[string]float64{
		"algo.build_ms":           buildMs,
		"recovery.ff_ratio_async": median(ratios(m.plain[vAsync], m.plain[vNone])),
		"recovery.async_barrier_ms": median(mapSamples(m.plain[vAsync], func(s jobSample) float64 {
			return ms(s.overhead.BarrierTime)
		})),
		"recovery.async_commit_ms": median(mapSamples(m.plain[vAsync], func(s jobSample) float64 {
			return ms(s.overhead.CommitTime)
		})),
	}
	coordCPU := median(mapSamples(opt, func(s jobSample) float64 { return s.coordCPU }))
	workerCPU := m.sharedWorkerCPU / float64(max(m.sharedJobs, 1))
	condemned := 0
	for _, v := range []string{vOptimisticFail, vCheckpointFail} {
		for _, s := range m.plain[v] {
			condemned = max(condemned, s.condemned)
		}
	}
	procOnly := map[string]float64{
		"proc.load_ms":                       buildMs,
		"proc.step_ms_min":                   minOf(a.get(vOptimistic, "step.min_ms")),
		"proc.coord_cpu_s_per_job":           coordCPU,
		"proc.worker_cpu_s_per_job":          workerCPU,
		"proc.cpu_per_wall":                  0,
		"proc.driver_tx_bytes_per_superstep": perTick(func(s jobSample) uint64 { return s.txBytes }),
		"proc.driver_rx_bytes_per_superstep": perTick(func(s jobSample) uint64 { return s.rxBytes }),
		"proc.fetch_ms":                      median(mapSamples(opt, func(s jobSample) float64 { return ms(s.fetch) })),
		"proc.rpc_retries":                   float64(m.sharedNet.RPCRetries),
		"proc.reconnects":                    float64(m.sharedNet.Reconnects),
		"proc.condemned":                     float64(condemned),
		"proc.worker_peak_rss_mb":            m.workerPeakRSS,
	}
	if jobS > 0 {
		procOnly["proc.cpu_per_wall"] = (coordCPU + workerCPU) / jobS
	}
	applicable, missing := procOnly, inprocOnly
	if !m.cfg.wl.proc {
		applicable, missing = inprocOnly, procOnly
	}
	for name, v := range applicable {
		vals[name] = v
	}
	for name := range missing {
		vals[name] = 0
		notApplicable = append(notApplicable, name)
	}
	return vals, notApplicable
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// header is recorded in every ledger entry, so two entries can be told
// apart by where and how they were taken.
type header struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Graph      graphInfo `json:"graph"`
	Workers    int       `json:"workers"`
	Partitions int       `json:"partitions"`
	Rounds     int       `json:"rounds"`
	SetupReps  int       `json:"setup_reps"`
	Traced     bool      `json:"traced"`
	Loadavg1   float64   `json:"loadavg_1m_at_start"`
	Seconds    float64   `json:"elapsed_s"`
}

func (m *measurement) header(commit string, loadavg float64) header {
	return header{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: m.cfg.seed, Graph: m.g,
		Workers: numWorkers, Partitions: numPartitions, Rounds: m.rounds,
		SetupReps: len(m.setups), Traced: m.cfg.traced, Loadavg1: loadavg,
		Seconds: m.elapsed.Seconds(),
	}
}
