// Command benchmark is optiflow's benchmark ledger: four workloads
// (PageRank on a scale-free graph, Connected Components on a grid; each
// in-process and on real worker processes, on the same graph object),
// every job verified against internal/algo/ref, end-to-end metrics
// timed with tracing off and per-layer metrics from a traced pass that
// wraps the public seams from outside. See README.md in this directory.
//
//	go run ./benchmark                       # all workloads, end-to-end metrics
//	go run ./benchmark -workload cc-grid-proc -trace spans.jsonl -out ledger.jsonl
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"optiflow/internal/cluster/proc"
)

func main() {
	// Worker processes are this binary re-executed; in that role the
	// call never returns.
	proc.MaybeChildMode()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 20150531, "seed of the generated graph; also picks the worker the scripted failure kills")
	seconds := fs.Float64("seconds", 28, "time budget of one workload, set-up and warm-up included")
	reps := fs.Int("reps", 0, "measured rounds per workload; 0 runs rounds until -seconds is spent")
	trace := fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1: add the traced pass and report per-layer metrics; any other value: as 1, and write the spans of the first two traced rounds to that file as JSON lines")
	out := fs.String("out", "", "append one ledger entry per workload to this file as JSON lines")
	compare := fs.Bool("compare", false, "compare two ledger files given as arguments against the bounds in -bounds")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark declaration holding the bound of every end-to-end metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two ledger files")
			return 2
		}
		worse, err := compareLedgers(stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}

	var selected []workload
	if *workloadFlag == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadFlag); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadFlag)
		return 2
	}

	// The machine has 2 CPUs; pin the driver to both and let the worker
	// processes inherit the setting through their environment.
	if os.Getenv("GOMAXPROCS") == "" {
		os.Setenv("GOMAXPROCS", "2")
		runtime.GOMAXPROCS(2)
	}

	procs := newProcSet()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		procs.closeAll()
		os.Exit(130)
	}()
	defer procs.closeAll()

	traced := *trace != "0"
	spanFile := ""
	if traced && *trace != "1" {
		spanFile = *trace
	}
	commit := commitID()
	failed := false
	var spans []span
	for _, wl := range selected {
		cfg := config{wl: wl, sc: fullScale, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
			rounds: *reps, traced: traced}
		if spanFile != "" {
			cfg.keepSpans = 2
		}
		load := loadavg1()
		m, err := measure(cfg, procs)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		entry := m.entry(commit, load)
		entry.print(stdout)
		if *out != "" {
			if err := appendEntry(*out, entry); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		spans = append(spans, m.spans...)
		// The contract's result line: the last line of a workload's
		// output, with the metrics of the pass that was asked for.
		if err := json.NewEncoder(stdout).Encode(entry.resultLine()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		failed = failed || !entry.Correct
	}
	if spanFile != "" {
		if err := writeSpanFile(spanFile, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitID names the commit under test: the revision stamped into the
// binary, else what git reports, else "unknown" (the driver's checkout
// is not a repository).
func commitID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// metricSpec names a metric and its unit. BENCHMARK.json declares the
// same lists, with the bounds; a test keeps the two in step.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"superstep_ms", "ms"},
	{"msgs_per_s", "1/s"},
	{"ff_ratio_optimistic", "ratio"},
	{"ff_ratio_checkpoint", "ratio"},
	{"job_fail_s_optimistic", "s"},
	{"job_fail_s_checkpoint", "s"},
	{"alloc_mb_per_job", "MB"},
}

var perLayerSpecs = []metricSpec{
	{"graph.gen_ms", "ms"},
	{"graph.dense_ms", "ms"},
	{"algo.build_ms", "ms"},
	{"step.busy_ms_per_superstep", "ms"},
	{"step.first_ms", "ms"},
	{"step.share", "ratio"},
	{"step.msgs_per_ms", "1/ms"},
	{"step.alloc_kb_per_superstep", "kB"},
	{"iterate.supersteps", "count"},
	{"iterate.ticks", "count"},
	{"iterate.self_ms_per_tick", "ms"},
	{"iterate.superstep_ms_p90", "ms"},
	{"recovery.hook_us_per_superstep_optimistic", "us"},
	{"recovery.barrier_ms_per_checkpoint", "ms"},
	{"recovery.onfailure_ms_optimistic", "ms"},
	{"recovery.onfailure_ms_checkpoint", "ms"},
	{"recovery.extra_ticks_optimistic", "count"},
	{"recovery.extra_ticks_checkpoint", "count"},
	{"recovery.ff_ratio_async", "ratio"},
	{"recovery.async_barrier_ms", "ms"},
	{"recovery.async_commit_ms", "ms"},
	{"state.snapshot_ms", "ms"},
	{"state.snapshot_bytes", "bytes"},
	{"state.restore_ms", "ms"},
	{"state.compensate_ms", "ms"},
	{"state.clear_ms", "ms"},
	{"checkpoint.saves", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.save_bytes_per_job", "bytes"},
	{"checkpoint.load_ms", "ms"},
	{"cluster.start_ms", "ms"},
	{"cluster.acquire_ms", "ms"},
	{"proc.load_ms", "ms"},
	{"proc.step_ms_min", "ms"},
	{"proc.coord_cpu_s_per_job", "s"},
	{"proc.worker_cpu_s_per_job", "s"},
	{"proc.cpu_per_wall", "ratio"},
	{"proc.driver_tx_bytes_per_superstep", "bytes"},
	{"proc.driver_rx_bytes_per_superstep", "bytes"},
	{"proc.fetch_ms", "ms"},
	{"proc.rpc_retries", "count"},
	{"proc.reconnects", "count"},
	{"proc.condemned", "count"},
	{"proc.worker_peak_rss_mb", "MB"},
	{"driver.peak_rss_mb", "MB"},
	{"gc.cycles_per_job", "count"},
	{"gc.pause_ms_per_job", "ms"},
	{"trace.overhead_pct", "%"},
}

// entry is one workload's line in a ledger file.
type entry struct {
	Header    header `json:"header"`
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// ErrorRate is failed ÷ attempted job runs over all variants.
	ErrorRate     float64                `json:"error_rate"`
	EndToEnd      map[string]summary     `json:"end_to_end"`
	PerLayer      map[string]float64     `json:"per_layer,omitempty"`
	NotApplicable []string               `json:"not_applicable,omitempty"`
	Counts        map[string]exactCounts `json:"exact_counts"`
}

func (m *measurement) entry(commit string, loadavg float64) entry {
	e := entry{
		Header:    m.header(commit, loadavg),
		Workload:  m.cfg.wl.name,
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		ErrorRate: float64(m.failed) / float64(max(m.attempted, 1)),
		EndToEnd:  m.endToEnd(),
		Counts:    m.counts(),
	}
	if m.cfg.traced {
		e.PerLayer, e.NotApplicable = m.perLayer(e.EndToEnd)
		sort.Strings(e.NotApplicable)
	}
	return e
}

// print writes every metric by name with its unit.
func (e entry) print(w io.Writer) {
	h := e.Header
	fmt.Fprintf(w, "workload %s  seed %d  %s: %d vertices, %d edges  %d partitions on %d workers\n",
		e.Workload, h.Seed, h.Graph.Name, h.Graph.Vertices, h.Graph.Edges, h.Partitions, h.Workers)
	fmt.Fprintf(w, "  commit %s  %s  nproc %d  GOMAXPROCS %d  loadavg %.2f  %d rounds + 1 warm-up, %d set-ups, %.1f s\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Loadavg1, h.Rounds, h.SetupReps, h.Seconds)
	fmt.Fprintln(w, "end-to-end (tracing off; median, quartiles, samples, highest supported percentile)")
	for _, spec := range endToEndSpecs {
		s := e.EndToEnd[spec.name]
		fmt.Fprintf(w, "  %-24s %14.6g %-5s  q1 %.6g  q3 %.6g  n %d", spec.name, s.Value, spec.unit, s.Q1, s.Q3, s.N)
		if s.P > 0 {
			fmt.Fprintf(w, "  p%g %.6g", s.P, s.PValue)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-24s %14.6g %-5s  %d failed of %d attempted job runs\n", "error_rate", e.ErrorRate, "ratio", e.Failed, e.Attempted)
	if e.PerLayer != nil {
		na := make(map[string]bool)
		for _, name := range e.NotApplicable {
			na[name] = true
		}
		fmt.Fprintln(w, "per-layer (traced pass)")
		for _, spec := range perLayerSpecs {
			if na[spec.name] {
				fmt.Fprintf(w, "  %-44s %14s        not applicable in this cluster mode\n", spec.name, "-")
				continue
			}
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", spec.name, e.PerLayer[spec.name], spec.unit)
		}
	}
	fmt.Fprintln(w, "exact counts (must repeat from job to job, pass to pass and run to run)")
	variants := make([]string, 0, len(e.Counts))
	for v := range e.Counts {
		variants = append(variants, v)
	}
	sort.Strings(variants)
	for _, v := range variants {
		c := e.Counts[v]
		fmt.Fprintf(w, "  %-16s supersteps %d  ticks %d  messages %d  over %d jobs, repeated exactly: %v\n",
			v, c.Supersteps, c.Ticks, c.Messages, c.Jobs, c.Repeat)
	}
}

// resultLine is the object the contract wants as the last line: the
// end-to-end metrics of a bare run, the per-layer metrics of a traced
// one.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (e entry) resultLine() resultLine {
	r := resultLine{Correct: e.Correct, Attempted: e.Attempted, Failed: e.Failed, Metrics: make(map[string]metricValue)}
	if e.PerLayer != nil {
		for _, spec := range perLayerSpecs {
			r.Metrics[spec.name] = metricValue{e.PerLayer[spec.name], spec.unit}
		}
		return r
	}
	for _, spec := range endToEndSpecs {
		r.Metrics[spec.name] = metricValue{e.EndToEnd[spec.name].Value, spec.unit}
	}
	return r
}

func appendEntry(path string, e entry) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(e); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
