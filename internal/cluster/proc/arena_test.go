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
	"optiflow/internal/graph"
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

// driverAlloc reads the bytes the driver process has allocated so far.
func driverAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// TestProcStepAllocationCeiling holds a steady-state superstep of the two
// ledger proc workloads — PageRank on gen.Twitter(4000) and CC on
// gen.Grid(48, 48), 4 partitions on 2 workers — to 1 kB allocated in the
// driver. PageRank reads ~0.3 kB, the Extra map its stats carry, and CC
// 0 B: the relay arenas, the step scratch and the frame buffers are
// reused, and the request and response are not boxed. It was ~52 kB while every StepResp decoded its relayed columns
// into a fresh arena, and ~2.7 kB while each superstep allocated its
// owner grouping, answer collection, goroutine closures and boxings.
// MemStats counts the whole driver process, so the cluster is kept
// quiet and the least of three windows counts.
func TestProcStepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"pagerank-twitter", Spec{Name: "ceiling", Kind: KindPageRank, Graph: gen.Twitter(4000, 20150531)}},
		{"cc-grid", Spec{Name: "ceiling", Kind: KindCC, Graph: gen.Grid(48, 48)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := quietCluster(t)
			defer co.Close()
			job, err := NewJob(co, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			perStep := leastPerStep(t, job, 3, 10, driverAlloc)
			t.Logf("driver allocates %.0f B per superstep", perStep)
			if perStep > 1<<10 {
				t.Errorf("driver allocates %.0f B per steady-state superstep, want <= 1024 (relay or step scratch regression)", perStep)
			}
		})
	}
}

// TestProcJobAllocationCeiling holds what the driver allocates for a
// whole failure-free job of the two ledger proc workloads, measured as
// the benchmark measures alloc_mb_per_job: the job built outside the
// window, a GC, then TotalAlloc around loop.Run under the optimistic
// policy and failure detection. Jobs run one after another on one quiet
// cluster and the first is left out: it grows the relay arenas and the
// step scratch the later ones reuse. The median of the later five reads
// ~19 kB for PageRank (25 supersteps) and ~36 kB for CC (96), most of it
// the loop's own Samples and PageRank's per-sample Extra; it was ~190 kB
// and ~375 kB while every job grew its own relay arenas and every
// superstep its scratch.
func TestProcJobAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name    string
		spec    Spec
		ceiling float64 // bytes per job
	}{
		{"pagerank-twitter", Spec{Name: "job-ceiling", Kind: KindPageRank, Graph: gen.Twitter(4000, 20150531), Damping: 0.85}, 32 << 10},
		{"cc-grid", Spec{Name: "job-ceiling", Kind: KindCC, Graph: gen.Grid(48, 48)}, 48 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := quietCluster(t)
			defer co.Close()
			var jobs []float64
			for i := range 6 {
				job, err := NewJob(co, tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				loop := &iterate.Loop{Name: tc.spec.Name, Step: job.Step, Job: job, Policy: recovery.Optimistic{},
					Cluster: co, Injector: DetectFailures(co, nil)}
				if tc.spec.Kind == KindCC {
					loop.Done = iterate.DeltaDone(job.WorksetLen)
				} else {
					loop.Done = iterate.BulkDone(200, func(int) bool { return job.LastL1() < 4.7e-5 })
				}
				runtime.GC()
				before := driverAlloc()
				if _, err := loop.Run(); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if grew := driverAlloc() - before; i > 0 {
					jobs = append(jobs, grew)
				}
			}
			slices.Sort(jobs)
			perJob := jobs[len(jobs)/2]
			t.Logf("driver allocates %.0f B per job (first job left out; later ones %.0f–%.0f B)", perJob, jobs[0], jobs[len(jobs)-1])
			if perJob > tc.ceiling {
				t.Errorf("driver allocates %.0f B per job, want <= %.0f (relay or step scratch no longer reused across jobs)", perJob, tc.ceiling)
			}
		})
	}
}

// TestProcStepReportsL1ForPageRankOnly pins which proc supersteps carry
// an "l1" Extra: PageRank's, whose convergence the demo reads from it —
// math.MaxFloat64 until the first fold — and not CC's, which, like the
// in-process CC, reports no Extra at all.
func TestProcStepReportsL1ForPageRankOnly(t *testing.T) {
	co := startTestCluster(t, eqWorkers, eqParts, nil)
	defer co.Close()
	for _, kind := range []string{KindCC, KindPageRank} {
		job, err := NewJob(co, Spec{Name: "l1-" + kind, Kind: kind, Graph: gen.Twitter(300, 7)})
		if err != nil {
			t.Fatal(err)
		}
		for s := range 2 {
			stats, err := job.Step(&iterate.Context{Superstep: s})
			if err != nil {
				t.Fatalf("%s superstep %d: %v", kind, s, err)
			}
			l1, ok := stats.Extra["l1"]
			switch {
			case kind == KindCC && stats.Extra != nil:
				t.Errorf("CC superstep %d reports Extra %v, want none", s, stats.Extra)
			case kind == KindPageRank && (!ok || (s == 0) != (l1 == math.MaxFloat64)):
				t.Errorf("PageRank superstep %d reports l1 %v (present %v), want math.MaxFloat64 only before the first fold", s, l1, ok)
			}
		}
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

	// The relay outlives a job. Jobs run back to back on one coordinator
	// decode into the arenas the jobs before them grew, and each must
	// still reach ground truth.
	check := func(t *testing.T, kind string, got procRun) {
		t.Helper()
		if kind == KindCC && !reflect.DeepEqual(got.labels, labels) {
			t.Error("labels differ from the in-process fixpoint")
		}
		if l1 := rankL1(got.ranks, ranks); kind == KindPageRank && (len(got.ranks) != len(ranks) || l1 > 1e-9) {
			t.Errorf("ranks are L1 %.3g from the reference", l1)
		}
	}
	t.Run("jobs/next", func(t *testing.T) {
		co := startTestCluster(t, eqWorkers, eqParts, nil)
		defer co.Close()
		for i, kind := range []string{KindPageRank, KindCC, KindPageRank, KindCC} {
			if i > 0 {
				co.mu.Lock()
				for w, p := range co.procs {
					if cap(p.relay.arenas[0]) == 0 || cap(p.relay.arenas[1]) == 0 {
						t.Errorf("job %d starts with worker %d's relay arenas of capacity %d and %d, want both grown by the jobs before",
							i, w, cap(p.relay.arenas[0]), cap(p.relay.arenas[1]))
					}
				}
				co.mu.Unlock()
			}
			check(t, kind, runHeld(t, co, kind, g, nil))
		}
	})

	// A job built before the current one must not read the relay: its
	// inbox views arenas the newer job decodes into. Its Step and
	// Compensate are refused by type and reach no worker, and the newer
	// job still reaches ground truth.
	t.Run("jobs/stale", func(t *testing.T) {
		co := startTestCluster(t, eqWorkers, eqParts, nil)
		defer co.Close()
		old, err := NewJob(co, Spec{Name: "stale", Kind: KindPageRank, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		for s := range 3 {
			if _, err := old.Step(&iterate.Context{Superstep: s}); err != nil {
				t.Fatalf("superstep %d of the older job: %v", s, err)
			}
		}
		if relayedBytes(old, nil) == 0 {
			t.Fatal("the older job relays no columns")
		}
		checked := false
		got := runHeld(t, co, KindCC, g, func(s iterate.Sample) {
			if s.Tick != 1 {
				return
			}
			checked = true
			var before []WorkerStats
			for _, w := range co.Workers() {
				before = append(before, workerStats(t, co, w))
			}
			var se *SupersededError
			if _, err := old.Step(&iterate.Context{Superstep: 3}); !errors.As(err, &se) {
				t.Errorf("Step of a superseded job: err %v, want *SupersededError", err)
			}
			if err := old.Compensate([]int{0}); !errors.As(err, &se) {
				t.Errorf("Compensate of a superseded job: err %v, want *SupersededError", err)
			}
			for i, w := range co.Workers() {
				// The first StatsReq is the one request handled since.
				if after := workerStats(t, co, w); after.Handled != before[i].Handled+1 {
					t.Errorf("worker %d handled %d requests for the superseded job", w, after.Handled-before[i].Handled-1)
				}
			}
		})
		if !checked {
			t.Fatalf("the newer job ran %d ticks, too few to try the superseded one", got.res.Ticks)
		}
		check(t, KindCC, got)
	})
}

// runHeld runs a kind job over g to convergence on co, which stays open
// for the next job, with onSample observing every attempt.
func runHeld(t *testing.T, co *Coordinator, kind string, g *graph.Graph, onSample func(iterate.Sample)) (run procRun) {
	t.Helper()
	job, err := NewJob(co, Spec{Name: "held-" + kind, Kind: kind, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{Name: "held-" + kind, Step: job.Step, Job: job, Policy: recovery.Optimistic{}, Cluster: co,
		MaxTicks: 2000, Injector: DetectFailures(co, nil), OnSample: onSample}
	if kind == KindCC {
		loop.Done = iterate.DeltaDone(job.WorksetLen)
	} else {
		loop.Done = iterate.BulkDone(1000, func(int) bool { return job.LastL1() < eqEpsilon })
	}
	if run.res, err = loop.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if kind == KindCC {
		run.labels, err = job.Components()
	} else {
		run.ranks, err = job.Ranks()
	}
	if err != nil {
		t.Fatalf("fetching results: %v", err)
	}
	return run
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
