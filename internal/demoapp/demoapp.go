// Package demoapp is the demonstration itself (§3): the terminal
// equivalent of the paper's GUI. Attendees choose an algorithm tab
// (Connected Components for delta iterations, PageRank for bulk
// iterations), pick the small hand-crafted graph or the larger
// Twitter-like graph, schedule worker failures per iteration, and watch
// the algorithm converge: per-iteration graph frames (components
// colored / vertices sized by rank, lost vertices highlighted), plus
// the two statistics plots per algorithm, with play / pause / step /
// back navigation over the frame history.
package demoapp

import (
	"fmt"
	"math"
	"strings"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/metrics"
	"optiflow/internal/plot"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
	"optiflow/internal/viz"
)

// Mode selects the algorithm tab.
type Mode int

// Algorithm tabs.
const (
	ModeCC Mode = iota
	ModePageRank
)

// String names the tab.
func (m Mode) String() string {
	if m == ModePageRank {
		return "pagerank"
	}
	return "connected-components"
}

// Config parameterises one demo run.
type Config struct {
	// Mode is the algorithm tab.
	Mode Mode
	// Large switches from the hand-crafted graph to the synthetic
	// Twitter-like graph (stats-only frames, like the paper's GUI).
	Large bool
	// LargeSize is the vertex count of the large graph (20000 if zero).
	LargeSize int
	// Parallelism is the task/partition count (4 if zero).
	Parallelism int
	// Seed drives the large-graph generator.
	Seed int64
	// Failures schedules worker failures per superstep (the GUI's
	// failure buttons). These strike at the superstep boundary.
	Failures map[int][]int
	// MidStepFailures schedules worker failures that strike while the
	// superstep's dataflow is still executing — the attendee pressing
	// the failure button mid-iteration. The attempt is aborted and
	// retried under the configured policy.
	MidStepFailures map[int][]int
	// MidStepAfterRecords is how many records a superstep processes
	// before a scheduled mid-step failure strikes (16 if zero).
	MidStepAfterRecords int64
	// Policy selects the recovery policy: "optimistic" (default),
	// "checkpoint", "async-checkpoint", "restart" or "none".
	Policy string
	// Supervised runs the iteration under the recovery supervisor: the
	// cluster gets a bounded spare pool (Spares), failures are healed
	// with retry/backoff and degraded-mode repartitioning, and policies
	// that cannot recover escalate instead of aborting the demo.
	Supervised bool
	// Spares bounds the spare pool when Supervised (negative =
	// unlimited; zero = no spares, every failure degrades the cluster).
	Spares int
	// FailureBudget is the supervisor's budget of consecutive discarded
	// attempts per superstep before escalating (supervisor default if
	// zero).
	FailureBudget int
	// DuringRecoveryFailures schedules workers to die while the
	// recovery for a failure at the keyed superstep is in flight —
	// requires Supervised.
	DuringRecoveryFailures map[int][]int
	// Color enables ANSI colors in frames.
	Color bool
	// PRIterations bounds PageRank supersteps (30 if zero).
	PRIterations int
	// NewCluster, when set, provisions the cluster backend the run
	// executes on — e.g. proc.Provision for a real multi-process
	// cluster whose Fail is a SIGKILL. It receives the worker and
	// partition counts and the supervision config (nil when not
	// Supervised), and its teardown runs when the demo run ends. When
	// nil the algorithms build the in-process simulation.
	NewCluster supervise.ClusterFactory
}

func (c Config) withDefaults() Config {
	if c.LargeSize == 0 {
		c.LargeSize = 20000
	}
	if c.Parallelism == 0 {
		c.Parallelism = 4
	}
	if c.Seed == 0 {
		c.Seed = 20150531 // SIGMOD'15 opening day
	}
	if c.PRIterations == 0 {
		c.PRIterations = 30
	}
	if c.MidStepAfterRecords == 0 {
		c.MidStepAfterRecords = 16
	}
	if c.Policy == "" {
		c.Policy = "optimistic"
	}
	return c
}

// policy maps the configured policy name to a recovery.Policy. A
// checkpointing policy gets a store of its own.
func (c Config) policy() recovery.Policy {
	switch c.Policy {
	case "checkpoint":
		return recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	case "async-checkpoint":
		// The pipelined baseline: capture at the barrier, per-partition
		// encode + persist in the background, atomic epoch commit.
		return recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), c.Parallelism)
	case "restart":
		return recovery.Restart{}
	case "none":
		return recovery.None{}
	default:
		return recovery.Optimistic{}
	}
}

// supervision builds the supervisor config for the run (nil when not
// Supervised).
func (c Config) supervision() *supervise.Config {
	if !c.Supervised {
		return nil
	}
	return &supervise.Config{
		Spares:        c.Spares,
		FailureBudget: c.FailureBudget,
	}
}

// provisionCluster builds the run's cluster backend via NewCluster. A
// nil cluster (and no-op teardown) means the algorithm constructs the
// in-process simulation itself.
func (c Config) provisionCluster(sup *supervise.Config) (cluster.Interface, func(), error) {
	if c.NewCluster == nil {
		return nil, func() {}, nil
	}
	return c.NewCluster(c.Parallelism, c.Parallelism, sup)
}

// injector builds the scripted injector from the boundary, mid-step and
// during-recovery failure schedules.
func (c Config) injector() failure.Injector {
	inj := failure.NewScripted(c.Failures)
	for superstep, workers := range c.MidStepFailures {
		inj.AtMidStep(superstep, c.MidStepAfterRecords, workers...)
	}
	for superstep, workers := range c.DuringRecoveryFailures {
		inj.AtDuringRecovery(superstep, workers...)
	}
	return inj
}

// netProbe returns a per-tick sampler that copies the cluster backend's
// cumulative network-fault counters into the collector — a no-op when
// the backend does not report them (the in-process simulation).
func netProbe(cl cluster.Interface, collector *metrics.Collector) func(tick int) {
	nr, ok := cl.(cluster.NetReporter)
	if !ok {
		return func(int) {}
	}
	return func(tick int) {
		st := nr.NetStats()
		collector.MarkNet(tick, metrics.Net{
			RPCRetries: st.RPCRetries,
			Reconnects: st.Reconnects,
			Suspected:  st.Suspected,
			Condemned:  st.Condemned,
		})
	}
}

// netSummary renders the backend's network-fault counters for run
// summaries ("" when the backend reports none or nothing happened).
func netSummary(cl cluster.Interface) string {
	nr, ok := cl.(cluster.NetReporter)
	if !ok {
		return ""
	}
	st := nr.NetStats()
	if st == (cluster.NetStats{}) {
		return ""
	}
	return fmt.Sprintf("  [network: %d rpc retries, %d reconnects, %d suspected, %d condemned, %d fenced]",
		st.RPCRetries, st.Reconnects, st.Suspected, st.Condemned, st.Fenced)
}

// recoverySuffix renders the supervisor's effort for status lines
// ("" for unsupervised or effortless recoveries).
func recoverySuffix(s iterate.Sample) string {
	if s.Retries == 0 && s.Escalations == 0 && !s.Degraded {
		return ""
	}
	var parts []string
	if s.Escalations > 0 {
		parts = append(parts, fmt.Sprintf("%d escalation(s)", s.Escalations))
	}
	if s.Retries > 0 {
		parts = append(parts, fmt.Sprintf("%d retry(s)", s.Retries))
	}
	if s.Degraded {
		parts = append(parts, "degraded")
	}
	return "  [RECOVERY: " + strings.Join(parts, ", ") + "]"
}

// Frame is one iteration's rendered view.
type Frame struct {
	Tick      int
	Superstep int
	// Graph is the rendered graph pane ("" for the large graph).
	Graph string
	// Status is the one-line statistics readout.
	Status string
	// Failure describes a failure that struck in this iteration ("").
	Failure string
	// Aborted reports that the failure struck mid-superstep: the
	// attempt was torn down before committing and its statistics were
	// discarded.
	Aborted bool
}

// RunOutcome is a completed demo run: the frame history the
// play/step/back buttons navigate, and the collected statistics series.
type RunOutcome struct {
	Config  Config
	Frames  []Frame
	Stats   *metrics.Collector
	Summary string
}

// Run executes the configured demo scenario and materialises the frame
// history.
func Run(cfg Config) (*RunOutcome, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode == ModePageRank {
		return runPR(cfg)
	}
	return runCC(cfg)
}

func demoGraph(cfg Config) (*graph.Graph, gen.Layout) {
	if cfg.Mode == ModePageRank {
		if cfg.Large {
			return gen.Twitter(cfg.LargeSize, cfg.Seed), nil
		}
		return gen.DemoDirected()
	}
	if cfg.Large {
		// Interpret the follower network as undirected for components,
		// as the demo does with its snapshot.
		und := graph.NewBuilder(false)
		gen.Twitter(cfg.LargeSize, cfg.Seed).Edges(func(e graph.Edge) { und.AddEdge(e.Src, e.Dst) })
		return und.Build(), nil
	}
	return gen.Demo()
}

func lostVertices(g *graph.Graph, par int, lostParts []int) map[graph.VertexID]bool {
	if len(lostParts) == 0 {
		return nil
	}
	set := make(map[int]bool, len(lostParts))
	for _, p := range lostParts {
		set[p] = true
	}
	out := make(map[graph.VertexID]bool)
	for _, v := range g.Vertices() {
		if set[graph.Partition(v, par)] {
			out[v] = true
		}
	}
	return out
}

func runCC(cfg Config) (*RunOutcome, error) {
	g, layout := demoGraph(cfg)
	truth := ref.ConnectedComponents(g)
	var renderer *viz.Renderer
	if !cfg.Large {
		renderer = viz.NewRenderer(g, layout)
		renderer.Color = cfg.Color
	}
	collector := metrics.NewCollector()
	outcome := &RunOutcome{Config: cfg, Stats: collector}

	if renderer != nil {
		outcome.Frames = append(outcome.Frames, Frame{
			Tick: -1, Superstep: -1,
			Graph:  renderer.CCFrame("initial state: every vertex is its own component", initialLabels(g), nil),
			Status: fmt.Sprintf("vertices=%d edges=%d  every vertex starts in its own component", g.NumVertices(), g.NumEdges()),
		})
	}

	pol := cfg.policy()
	sup := cfg.supervision()
	cl, stop, err := cfg.provisionCluster(sup)
	if err != nil {
		return nil, err
	}
	defer stop()
	sampleNet := netProbe(cl, collector)
	res, err := cc.Run(g, cc.Options{
		Parallelism: cfg.Parallelism,
		Injector:    cfg.injector(),
		Policy:      pol,
		Supervise:   sup,
		Cluster:     cl,
		Probe: func(job *cc.CC, s iterate.Sample) {
			converged := job.ConvergedCount(truth)
			collector.Record(s.Tick, "converged-vertices", float64(converged))
			collector.Record(s.Tick, "messages", float64(s.Stats.Messages))
			sampleNet(s.Tick)
			if o := pol.Overhead(); o.Checkpoints > 0 {
				collector.MarkCheckpoint(s.Tick, o.BarrierTime, o.CommitTime)
			}
			frame := Frame{Tick: s.Tick, Superstep: s.Superstep, Aborted: s.Aborted}
			title := fmt.Sprintf("iteration %d: %d/%d vertices converged, %d messages",
				s.Tick+1, converged, g.NumVertices(), s.Stats.Messages)
			if s.Failed() {
				frame.Failure = fmt.Sprintf("worker(s) %v failed, partitions %v lost — %s",
					s.FailedWorkers, s.LostPartitions, s.Recovery)
				if s.Aborted {
					frame.Failure = "mid-iteration abort: " + frame.Failure
					collector.MarkAborted(s.Tick)
					title += "  [FAILURE: aborted mid-iteration]"
				} else {
					title += "  [FAILURE: compensated]"
				}
				title += recoverySuffix(s)
				collector.MarkFailure(s.Tick, frame.Failure)
				collector.MarkRecovery(s.Tick, s.RecoveryDuration, s.Retries, s.Escalations)
			}
			if renderer != nil {
				frame.Graph = renderer.CCFrame(title, job.Components(), lostVertices(g, cfg.Parallelism, s.LostPartitions))
			}
			frame.Status = title
			outcome.Frames = append(outcome.Frames, frame)
		},
	})
	if err != nil {
		return nil, err
	}
	outcome.Summary = fmt.Sprintf(
		"connected components converged after %d iterations (%d attempts, %d failures%s): %d components — result %s%s",
		res.Supersteps, res.Ticks, res.Failures, supervisionSummary(res.Result),
		ref.NumComponents(res.Components), verdict(componentsEqual(res.Components, truth)),
		netSummary(cl))
	return outcome, nil
}

// supervisionSummary renders the supervisor's totals for run summaries
// ("" when it never had to work).
func supervisionSummary(res *iterate.Result) string {
	if res.TotalRetries == 0 && res.TotalEscalations == 0 {
		return ""
	}
	return fmt.Sprintf(", %d retries, %d escalations", res.TotalRetries, res.TotalEscalations)
}

func initialLabels(g *graph.Graph) map[graph.VertexID]graph.VertexID {
	m := make(map[graph.VertexID]graph.VertexID, g.NumVertices())
	for _, v := range g.Vertices() {
		m[v] = v
	}
	return m
}

func componentsEqual(a, b map[graph.VertexID]graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func verdict(ok bool) string {
	if ok {
		return "CORRECT (matches union-find ground truth)"
	}
	return "INCORRECT"
}

func runPR(cfg Config) (*RunOutcome, error) {
	g, layout := demoGraph(cfg)
	truth, _ := ref.PageRank(g, ref.PageRankOptions{})
	eps := convergedEps(g)
	var renderer *viz.Renderer
	if !cfg.Large {
		renderer = viz.NewRenderer(g, layout)
		renderer.Color = cfg.Color
	}
	collector := metrics.NewCollector()
	outcome := &RunOutcome{Config: cfg, Stats: collector}

	if renderer != nil {
		uniform := make(map[graph.VertexID]float64, g.NumVertices())
		for _, v := range g.Vertices() {
			uniform[v] = 1 / float64(g.NumVertices())
		}
		outcome.Frames = append(outcome.Frames, Frame{
			Tick: -1, Superstep: -1,
			Graph:  renderer.PRFrame("initial state: uniform rank distribution", uniform, nil),
			Status: fmt.Sprintf("vertices=%d edges=%d  all vertices start at rank 1/n", g.NumVertices(), g.NumEdges()),
		})
	}

	pol := cfg.policy()
	sup := cfg.supervision()
	cl, stop, err := cfg.provisionCluster(sup)
	if err != nil {
		return nil, err
	}
	defer stop()
	sampleNet := netProbe(cl, collector)
	res, err := pagerank.Run(g, pagerank.Options{
		Parallelism:   cfg.Parallelism,
		MaxIterations: cfg.PRIterations,
		Injector:      cfg.injector(),
		Policy:        pol,
		Supervise:     sup,
		Cluster:       cl,
		Probe: func(job *pagerank.PR, s iterate.Sample) {
			converged := job.ConvergedCount(truth, eps)
			l1 := s.Stats.Extra["l1"]
			collector.Record(s.Tick, "converged-vertices", float64(converged))
			collector.Record(s.Tick, "l1-delta", l1)
			sampleNet(s.Tick)
			if o := pol.Overhead(); o.Checkpoints > 0 {
				collector.MarkCheckpoint(s.Tick, o.BarrierTime, o.CommitTime)
			}
			frame := Frame{Tick: s.Tick, Superstep: s.Superstep, Aborted: s.Aborted}
			title := fmt.Sprintf("iteration %d: %d/%d vertices at their true rank, L1 delta %.2e",
				s.Tick+1, converged, g.NumVertices(), l1)
			if s.Failed() {
				frame.Failure = fmt.Sprintf("worker(s) %v failed, partitions %v lost — %s",
					s.FailedWorkers, s.LostPartitions, s.Recovery)
				if s.Aborted {
					frame.Failure = "mid-iteration abort: " + frame.Failure
					collector.MarkAborted(s.Tick)
					title += "  [FAILURE: aborted mid-iteration]"
				} else {
					title += "  [FAILURE: mass redistributed]"
				}
				title += recoverySuffix(s)
				collector.MarkFailure(s.Tick, frame.Failure)
				collector.MarkRecovery(s.Tick, s.RecoveryDuration, s.Retries, s.Escalations)
			}
			if renderer != nil {
				frame.Graph = renderer.PRFrame(title, job.RankVector(), lostVertices(g, cfg.Parallelism, s.LostPartitions))
			} else if s.Tick%5 == 4 {
				frame.Graph = "top ranked vertices:\n" + viz.TopRanks(job.RankVector(), 5)
			}
			frame.Status = title
			outcome.Frames = append(outcome.Frames, frame)
		},
	})
	if err != nil {
		return nil, err
	}
	outcome.Summary = fmt.Sprintf(
		"pagerank finished after %d iterations (%d attempts, %d failures%s): L1 distance to ground truth %.2e — result %s%s",
		res.Supersteps, res.Ticks, res.Failures, supervisionSummary(res.Result),
		ref.L1(res.Ranks, truth), verdict(ref.L1(res.Ranks, truth) < 1e-3),
		netSummary(cl))
	return outcome, nil
}

// convergedEps picks the "vertex has converged to its true rank"
// tolerance: 10% of the uniform rank, tight enough that compensation
// visibly un-converges vertices yet loose enough that the plot shows a
// progression on the small demo graph.
func convergedEps(g *graph.Graph) float64 {
	return 0.1 / float64(g.NumVertices())
}

// Charts builds the two statistics panes of the current tab (the GUI's
// bottom-left and bottom-right plots), with failure iterations marked.
func (o *RunOutcome) Charts() []*plot.Chart {
	fails := o.Stats.FailureTicks()
	left := &plot.Chart{
		Title:   "vertices converged to their final value, per iteration",
		YLabel:  "vertices",
		Series:  []plot.Line{{Name: "converged", Values: o.Stats.Series("converged-vertices")}},
		Markers: fails,
		Width:   64, Height: 10,
	}
	var right *plot.Chart
	if o.Config.Mode == ModePageRank {
		l1 := append([]float64(nil), o.Stats.Series("l1-delta")...)
		for i, v := range l1 {
			if v > 0 {
				l1[i] = math.Log10(v)
			}
		}
		right = &plot.Chart{
			Title:   "log10 L1 norm of rank delta, per iteration (spikes = failures)",
			YLabel:  "log10(L1)",
			Series:  []plot.Line{{Name: "log10(L1)", Values: l1}},
			Markers: fails,
			Width:   64, Height: 10,
		}
	} else {
		right = &plot.Chart{
			Title:   "messages (candidate labels sent to neighbors), per iteration",
			YLabel:  "messages",
			Series:  []plot.Line{{Name: "messages", Values: o.Stats.Series("messages")}},
			Markers: fails,
			Width:   64, Height: 10,
		}
	}
	return []*plot.Chart{left, right}
}

// Plots renders the two statistics panes as terminal charts.
func (o *RunOutcome) Plots() string {
	charts := o.Charts()
	var b strings.Builder
	b.WriteString(charts[0].Render())
	b.WriteString("\n")
	b.WriteString(charts[1].Render())
	return b.String()
}
