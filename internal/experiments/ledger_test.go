package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger_counts.txt from this run")

// The ledger's deployment and jobs, as benchmark/workload.go sets them
// (its constants, fullScale and the seed's default): 4 partitions on 2
// workers, PageRank with damping 0.85 stopping once a superstep moves
// less than 4.7e-5 rank mass, checkpoints every 5 supersteps, and one
// boundary kill of worker seed mod 2 at superstep 7 (PageRank) or 45
// (grid CC).
const (
	ledgerSeed       = 20150531
	ledgerWorkers    = 2
	ledgerPartitions = 4
	ledgerDamping    = 0.85
	ledgerEpsilon    = 4.7e-5
	ledgerMaxIter    = 200
	ledgerCkpt       = 5
)

// ledgerWorkload is one of the ledger's four (algorithm, graph, cluster
// mode) combinations; failAt is the superstep its scripted kill strikes.
type ledgerWorkload struct {
	name     string
	pagerank bool
	proc     bool
	failAt   int
}

var ledgerWorkloads = []ledgerWorkload{
	{name: "pr-twitter-inproc", pagerank: true, failAt: 7},
	{name: "cc-grid-inproc", failAt: 45},
	{name: "pr-twitter-proc", pagerank: true, proc: true, failAt: 7},
	{name: "cc-grid-proc", proc: true, failAt: 45},
}

// ledgerVariants are the ledger's end-to-end variants: three policies
// failure-free, two with the scripted kill.
var ledgerVariants = []struct {
	name   string
	fail   bool
	policy func(checkpoint.Store) recovery.Policy
}{
	{"none", false, func(checkpoint.Store) recovery.Policy { return recovery.None{} }},
	{"optimistic", false, func(checkpoint.Store) recovery.Policy { return recovery.Optimistic{} }},
	{"checkpoint", false, func(st checkpoint.Store) recovery.Policy { return recovery.NewCheckpoint(ledgerCkpt, st) }},
	{"optimistic_fail", true, func(checkpoint.Store) recovery.Policy { return recovery.Optimistic{} }},
	{"checkpoint_fail", true, func(st checkpoint.Store) recovery.Policy { return recovery.NewCheckpoint(ledgerCkpt, st) }},
}

// ledgerRun is what one ledger job yields: its exact counts and its
// result.
type ledgerRun struct {
	supersteps, ticks int
	messages          int64
	ranks             map[graph.VertexID]float64
	labels            map[graph.VertexID]graph.VertexID
}

func (r ledgerRun) counts() string {
	return fmt.Sprintf("%d %d %d", r.supersteps, r.ticks, r.messages)
}

// startLedgerCluster boots worker processes configured as the ledger's
// (benchmark/sys.go): 50 ms heartbeat, 30 s call timeout.
func startLedgerCluster(t *testing.T) *proc.Coordinator {
	t.Helper()
	co, err := proc.Start(proc.Config{Workers: ledgerWorkers, Partitions: ledgerPartitions,
		Heartbeat: 50 * time.Millisecond, CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// runLedgerJob builds wl's job on g and runs it to its converged result
// under policy, the way benchmark/workload.go's buildJob and runJob do:
// in-process on a simulated cluster, or through proc.NewJob on co with
// proc.DetectFailures around the injector. With fail, the scripted kill
// of worker seed mod 2 strikes at wl.failAt and must land.
func runLedgerJob(t *testing.T, wl ledgerWorkload, g *graph.Graph, co *proc.Coordinator, fail bool, policy recovery.Policy) ledgerRun {
	t.Helper()
	var (
		rec   recovery.Job
		step  func(*iterate.Context) (iterate.StepStats, error)
		done  func(int) bool
		fetch func(*ledgerRun) error
		cl    cluster.Interface
	)
	if co != nil {
		cl = co
		kind := proc.KindCC
		if wl.pagerank {
			kind = proc.KindPageRank
		}
		j, err := proc.NewJob(co, proc.Spec{Name: wl.name, Kind: kind, Graph: g, Damping: ledgerDamping})
		if err != nil {
			t.Fatal(err)
		}
		rec, step = j, j.Step
		if wl.pagerank {
			done = iterate.BulkDone(ledgerMaxIter, func(int) bool { return j.LastL1() < ledgerEpsilon })
			fetch = func(r *ledgerRun) (err error) { r.ranks, err = j.Ranks(); return err }
		} else {
			done = iterate.DeltaDone(j.WorksetLen)
			fetch = func(r *ledgerRun) (err error) { r.labels, err = j.Components(); return err }
		}
	} else {
		cl = cluster.New(ledgerWorkers, ledgerPartitions)
		if wl.pagerank {
			j := pagerank.NewColumnar(g, ledgerPartitions, ledgerDamping, nil)
			rec, step = j, j.Step
			done = iterate.BulkDone(ledgerMaxIter, func(int) bool { return j.LastL1() < ledgerEpsilon })
			fetch = func(r *ledgerRun) error { r.ranks = j.RankVector(); return nil }
		} else {
			j := cc.NewColumnar(g, ledgerPartitions)
			rec, step = j, j.Step
			done = iterate.DeltaDone(j.WorksetLen)
			fetch = func(r *ledgerRun) error { r.labels = j.Components(); return nil }
		}
	}
	var injector failure.Injector
	victim := int(uint64(ledgerSeed) % ledgerWorkers)
	if fail {
		injector = failure.NewScripted(nil).At(wl.failAt, victim)
	}
	if co != nil {
		injector = proc.DetectFailures(co, injector)
	}
	loop := &iterate.Loop{Name: wl.name, Step: step, Done: done, Job: rec, Cluster: cl, Injector: injector, Policy: policy}
	res, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := map[bool]int{false: 0, true: 1}[fail]; res.Failures != want {
		t.Fatalf("%d failures struck, want %d", res.Failures, want)
	}
	if fail && cl.IsAlive(victim) {
		t.Fatalf("victim worker %d is still alive", victim)
	}
	run := ledgerRun{supersteps: res.Supersteps, ticks: res.Ticks}
	for _, s := range res.Samples {
		run.messages += s.Stats.Messages
	}
	if err := fetch(&run); err != nil {
		t.Fatal(err)
	}
	return run
}

// runLedger runs every ledger job once and returns the runs by
// "workload variant". The failure-free proc jobs share one cluster of
// worker processes; a kill gets a fresh one, as in the ledger.
func runLedger(t *testing.T) map[string]ledgerRun {
	t.Helper()
	twitter, grid := gen.Twitter(4000, ledgerSeed), gen.Grid(48, 48)
	shared := startLedgerCluster(t)
	defer shared.Close()
	runs := map[string]ledgerRun{}
	for _, wl := range ledgerWorkloads {
		g := grid
		if wl.pagerank {
			g = twitter
		}
		for _, v := range ledgerVariants {
			var co *proc.Coordinator
			switch {
			case wl.proc && v.fail:
				co = startLedgerCluster(t)
			case wl.proc:
				co = shared
			}
			runs[wl.name+" "+v.name] = runLedgerJob(t, wl, g, co, v.fail, v.policy(checkpoint.NewMemoryStore()))
			if co != nil && co != shared {
				co.Close()
			}
		}
	}
	return runs
}

const ledgerGolden = "testdata/ledger_counts.txt"

// TestLedgerCounts pins the exact counts of the benchmark ledger —
// supersteps, ticks and Σ messages of each of the 20 (workload,
// variant) jobs — to testdata/ledger_counts.txt. The jobs are built as
// benchmark/workload.go builds them (buildJob and runJob, ~l.185–212
// and l.310–318): gen.Twitter(4000, 20150531) and gen.Grid(48, 48) on 4
// partitions and 2 workers, recovery.NewCheckpoint(5, …), a boundary
// kill of worker 1 at superstep 7 or 45, and in proc mode proc.NewJob
// with proc.DetectFailures. Each count is a function of the input, so a
// change that moves one changed what the jobs compute. Rewrite the file
// with -update only for a change meant to move a count, and name the
// cause in CHANGES.md.
//
// It also holds rollback to its guarantee: in-process, checkpoint_fail
// replays the same supersteps from the same bytes, so every rank and
// every label it ends with is bit-identical to the failure-free run's.
// The proc checkpoint_fail run is held to the same.
func TestLedgerCounts(t *testing.T) {
	runs := runLedger(t)

	var got strings.Builder
	got.WriteString("# workload variant supersteps ticks messages\n")
	for _, wl := range ledgerWorkloads {
		for _, v := range ledgerVariants {
			fmt.Fprintf(&got, "%s %s %s\n", wl.name, v.name, runs[wl.name+" "+v.name].counts())
		}
	}
	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readLedgerGolden()
	if err != nil {
		t.Fatal(err)
	}
	for key, counts := range want {
		if run, ok := runs[key]; !ok {
			t.Errorf("%s: in the golden, not in the ledger", key)
		} else if run.counts() != counts {
			t.Errorf("%s: supersteps/ticks/messages %s, the golden %s", key, run.counts(), counts)
		}
	}
	if len(want) != len(runs) {
		t.Errorf("the golden holds %d jobs, the ledger runs %d", len(want), len(runs))
	}

	for _, wl := range ledgerWorkloads {
		none, rolled := runs[wl.name+" none"], runs[wl.name+" checkpoint_fail"]
		if n := differingBits(none, rolled); n != 0 {
			t.Errorf("%s: checkpoint_fail ends with %d results differing in some bit from none's", wl.name, n)
		}
		t.Logf("%s: optimistic_fail ends with %d of %d results differing in some bit from none's", wl.name,
			differingBits(none, runs[wl.name+" optimistic_fail"]), len(none.ranks)+len(none.labels))
	}
}

// readLedgerGolden reads the golden's "workload variant" → "supersteps
// ticks messages" lines.
func readLedgerGolden() (map[string]string, error) {
	f, err := os.Open(ledgerGolden)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, fmt.Errorf("%s: malformed line %q", ledgerGolden, line)
		}
		want[fields[0]+" "+fields[1]] = strings.Join(fields[2:], " ")
	}
	return want, sc.Err()
}

// differingBits counts the vertices whose rank or label differs between
// a and b in any bit, a vertex one of them lacks included.
func differingBits(a, b ledgerRun) int {
	n := 0
	for v, ra := range a.ranks {
		if rb, ok := b.ranks[v]; !ok || math.Float64bits(ra) != math.Float64bits(rb) {
			n++
		}
	}
	for v, la := range a.labels {
		if lb, ok := b.labels[v]; !ok || la != lb {
			n++
		}
	}
	return n + max(len(b.ranks)-len(a.ranks), 0) + max(len(b.labels)-len(a.labels), 0)
}
