package proc

// arena_test.go pins the recycled relay arenas: a steady-state superstep
// allocates next to nothing in the driver, no view outlives its arena's
// generation under any recovery, and a hostile section neither
// allocates nor touches the arena it was to be decoded into.

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/colbytes"
	"optiflow/internal/graph/gen"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// quietCluster starts 4 partitions on 2 workers, the ledger's proc
// shape, kept quiet for MemStats windows: no standby spawning, no
// heartbeat in the window.
func quietCluster(t *testing.T) *Coordinator {
	t.Helper()
	return startTestCluster(t, 2, 4, func(c *Config) {
		c.Cluster = []cluster.Option{cluster.WithSpares(0)}
		c.Heartbeat, c.LivenessWindow = 5*time.Second, 30*time.Second
	})
}

// leastPerStep steps job warm times, then three windows of steps
// supersteps, and returns the least per-superstep growth of what
// measure reads.
func leastPerStep(t *testing.T, job *Job, warm, steps int, measure func() float64) float64 {
	t.Helper()
	s := 0
	step := func() {
		if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
			t.Fatalf("superstep %d: %v", s, err)
		}
		s++
	}
	for s < warm {
		step()
	}
	perStep := math.Inf(1)
	for range 3 {
		before := measure()
		for range steps {
			step()
		}
		perStep = min(perStep, (measure()-before)/float64(steps))
	}
	return perStep
}

// TestProcStepAllocationCeiling holds a steady-state PageRank superstep
// on gen.Twitter(4000) — 4 partitions on 2 workers, the ledger's
// pr-twitter-proc — to 4 kB allocated in the driver. It was ~52 kB when
// every StepResp decoded its relayed columns into a fresh arena.
// MemStats counts the whole driver process, so the cluster is kept
// quiet and the least of three windows counts.
func TestProcStepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	co := quietCluster(t)
	defer co.Close()
	job, err := NewJob(co, Spec{Name: "ceiling", Kind: KindPageRank, Graph: gen.Twitter(4000, 20150531)})
	if err != nil {
		t.Fatal(err)
	}
	const warm, steps = 3, 10
	s := 0
	step := func() {
		if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
			t.Fatalf("superstep %d: %v", s, err)
		}
		s++
	}
	for s < warm {
		step()
	}
	perStep := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range steps {
			step()
		}
		runtime.ReadMemStats(&after)
		perStep = min(perStep, float64(after.TotalAlloc-before.TotalAlloc)/steps)
	}
	t.Logf("driver allocates %.0f B per superstep", perStep)
	if perStep > 4<<10 {
		t.Errorf("driver allocates %.0f B per steady-state superstep, want <= 4096 (relay arena regression)", perStep)
	}
}

// TestProcWorkerStepAllocationCeiling holds what a steady-state hosted
// superstep allocates in a worker process, read from WorkerStats, on the
// two ledger proc workloads: CC on gen.Grid(48, 48) and PageRank on
// gen.Twitter(4000), 4 partitions on 2 workers. Reading the counters
// costs a few frames (the StatsReq, its answer and the commit
// settled ahead of it), so a round counts a short and a long window of
// supersteps and takes the difference, in the worker that allocates
// more; the median of five rounds counts. What is left, ~340 B, is the
// frame codec boxing the request and the response. While the halves ran
// on goroutines fed through channels and every attempt's revert capture
// made the fold copy the values and regrow the workset, it was ~44 kB
// (CC) and ~28 kB (PageRank).
func TestProcWorkerStepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name    string
		spec    Spec
		ceiling float64 // bytes per superstep
	}{
		{"cc-grid", Spec{Name: "worker-ceiling", Kind: KindCC, Graph: gen.Grid(48, 48)}, 512},
		{"pagerank-twitter", Spec{Name: "worker-ceiling", Kind: KindPageRank, Graph: gen.Twitter(4000, 20150531)}, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := quietCluster(t)
			defer co.Close()
			job, err := NewJob(co, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			const warm, short, long = 3, 2, 12
			s := 0
			// window runs n supersteps and returns what each worker
			// allocated meanwhile, the stats reads included.
			window := func(n int) []float64 {
				grew := make([]float64, 0, 2)
				var before []uint64
				for _, w := range co.Workers() {
					before = append(before, workerStats(t, co, w).AllocBytes)
				}
				for range n {
					if _, err := job.Step(&iterate.Context{Superstep: s}); err != nil {
						t.Fatalf("superstep %d: %v", s, err)
					}
					s++
				}
				for i, w := range co.Workers() {
					grew = append(grew, float64(workerStats(t, co, w).AllocBytes-before[i]))
				}
				return grew
			}
			window(warm)
			var rounds []float64
			for range 5 {
				a, b := window(short), window(long)
				worst := math.Inf(-1)
				for i := range a {
					worst = max(worst, (b[i]-a[i])/(long-short))
				}
				rounds = append(rounds, worst)
			}
			slices.Sort(rounds)
			perStep := rounds[len(rounds)/2]
			t.Logf("a worker allocates %.0f B per superstep", perStep)
			if perStep > tc.ceiling {
				t.Errorf("a worker allocates %.0f B per steady-state superstep, want <= %.0f (hosted halves or revert captures allocating again)", perStep, tc.ceiling)
			}
		})
	}
}

// TestRelayArenaLifetime runs a job through every recovery that touches
// the relayed columns with every recycled arena poisoned: before an
// arena is reused, the driver (here) and the workers (TestMain) fill it
// with 0xA5, so a column view kept past its generation folds garbage
// instead of stale but plausible rows. CC and PageRank on a directed
// graph must reach ground truth after a boundary failure and a
// mid-superstep SIGKILL (both compensated; CC's compensation merges
// re-sent rows into a pair already relayed), a checkpoint rollback and a
// straggler condemned by the watchdog, and PageRank's ranks must sum to
// one after every superstep.
func TestRelayArenaLifetime(t *testing.T) {
	poisonRecycled = true
	defer func() { poisonRecycled = false }()
	g := gen.Twitter(300, 7)
	// Directed: labels diffuse along out-edges only, so the fixpoint is
	// the in-process job's, not union-find's.
	inproc := cc.NewColumnar(g, eqParts)
	for inproc.WorksetLen() > 0 {
		if _, err := inproc.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	labels := inproc.Components()
	ranks, _ := ref.PageRank(g, ref.PageRankOptions{})

	for kind, at := range map[string]int{KindCC: 1, KindPageRank: 2} {
		for _, tc := range []struct {
			name   string
			policy recovery.Policy
			script procScript
			// straggle cuts worker 1's answers off once superstep at
			// committed, for the watchdog to condemn it in the next.
			straggle bool
		}{
			{"boundary", recovery.Optimistic{}, boundaryKill(t, at, false), false},
			{"midstep", recovery.Optimistic{}, midStepKill(at), false},
			{"checkpoint", recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()), midStepKill(at), false},
			{"straggler", recovery.Optimistic{}, undisturbed, true},
		} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				nw := netfault.New(5)
				co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) {
					c.NetFault = nw
					c.StragglerFactor, c.StragglerMin = 2, 300*time.Millisecond
				})
				merged := false
				got := runProcOn(t, co, kind, g, tc.policy, tc.script, func(r *procRig) {
					var before map[[2]int]int
					r.loop.Job = compensating{Job: r.job, before: func(lost []int) {
						before = relayedLens(r.job, lost)
					}, after: func(lost []int, _ error) {
						for pair, n := range relayedLens(r.job, lost) {
							merged = merged || before[pair] > 0 && n > before[pair]
						}
					}}
					r.loop.OnSample = func(s iterate.Sample) {
						if kind == KindPageRank {
							ranks, err := r.job.Ranks()
							if sum := rankSum(ranks); err != nil || math.Abs(sum-1) > 1e-9 {
								t.Errorf("tick %d (superstep %d): ranks sum to %.12f (err %v)", s.Tick, s.Superstep, sum, err)
							}
						}
						if tc.straggle && s.Tick == at {
							nw.PartitionInbound(1)
						}
					}
				})
				if got.res.Failures != 1 {
					t.Fatalf("%d failures struck, want 1", got.res.Failures)
				}
				straggled := slices.ContainsFunc(co.Events(), func(e cluster.Event) bool {
					return e.Kind == cluster.EventCondemn && strings.Contains(e.Detail, "straggling")
				})
				if straggled != tc.straggle {
					t.Errorf("a condemnation for straggling: %v, want %v", straggled, tc.straggle)
				}
				if kind == KindCC && !reflect.DeepEqual(got.labels, labels) {
					t.Error("labels differ from the in-process fixpoint")
				}
				if l1 := rankL1(got.ranks, ranks); kind == KindPageRank && (len(got.ranks) != len(ranks) || l1 > 1e-9) {
					t.Errorf("ranks are L1 %.3g from the reference", l1)
				}
				if kind == KindCC && tc.policy.PolicyName() == "optimistic" && !merged {
					t.Error("the compensation merged no re-sent rows into a relayed pair")
				}
			})
		}
	}
}

// relayedLens maps every pair the driver relays from a partition not
// listed to its column bytes.
func relayedLens(j *Job, lost []int) map[[2]int]int {
	lens := map[[2]int]int{}
	for _, cols := range j.inbox {
		for _, c := range cols {
			if !slices.Contains(lost, c.Src) {
				lens[[2]int{c.Src, c.Dst}] = len(c.Cols)
			}
		}
	}
	return lens
}

// TestRelayArenaHostileSection decodes a StepResp whose one byte section
// declares 1 GiB over the 10 bytes that follow into a recycled arena:
// the frame is malformed, by type, and the arena keeps its capacity and
// bytes — the lengths are checked before it could be regrown.
func TestRelayArenaHostileSection(t *testing.T) {
	body := []byte{wireVersion, kStepResp}
	body = colbytes.AppendU64(body, 9)
	body = colbytes.AppendU32(body, 1) // one entry: (0 -> 1), 1 GiB
	body = colbytes.AppendU32(colbytes.AppendU32(colbytes.AppendU32(body, 0), 1), 1<<30)
	body = append(body, make([]byte, 10)...)
	frame := make([]byte, netfault.HeaderLen, netfault.HeaderLen+len(body))
	netfault.PutHeader(frame, len(body))
	frame = append(frame, body...)

	arena := bytes.Repeat([]byte{7}, 64)
	was := bytes.Clone(arena)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, m, err := readFrame(bytes.NewReader(frame), &arena)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("decoded %#v, err %v; want ErrMalformed", m, err)
	}
	if cap(arena) != cap(was) || !bytes.Equal(arena[:cap(arena)], was) {
		t.Errorf("the arena went from capacity %d to %d or had its bytes overwritten", cap(was), cap(arena))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding the hostile section allocated %d bytes", grew)
	}
}
