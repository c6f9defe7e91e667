package proc

// standby_test.go pins the warm standby's lifecycle against real worker
// processes: adopted when it is healthy (waited for when its spawn is
// still running), discarded when it died idle or lost its beat stream,
// folded into the recovery when it dies right after adoption, and never
// leaked — every process a coordinator spawned has been reaped when
// Close returns, a spawn Close overtakes included. In every run the job
// converges to internal/algo/ref.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	oexec "os/exec"

	"optiflow/internal/algo/ref"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/exec"
	"optiflow/internal/failure"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"
)

// spawnLog is a Config.Spawn that starts workers as the default spawner
// does and remembers every process by worker ID, with the time its
// command was handed over. edit, if set, may change a worker's command
// (or take its time) first.
type spawnLog struct {
	edit func(w int, cmd *oexec.Cmd)

	mu   sync.Mutex
	cmds map[int]*oexec.Cmd
	at   map[int]time.Time
}

func (l *spawnLog) spawn(w int, env []string) (*oexec.Cmd, error) {
	cmd, err := reexecCommand(env)
	if err != nil {
		return nil, err
	}
	if l.edit != nil {
		l.edit(w, cmd)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cmds == nil {
		l.cmds, l.at = make(map[int]*oexec.Cmd), make(map[int]time.Time)
	}
	l.cmds[w], l.at[w] = cmd, time.Now()
	return cmd, nil
}

// spawned lists the worker IDs a process was started for.
func (l *spawnLog) spawned() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ids []int
	for w := range l.cmds {
		ids = append(ids, w)
	}
	slices.Sort(ids)
	return ids
}

// assertReaped demands, once the coordinator is closed, that exactly the
// listed workers were spawned and that every one of them has been reaped.
func (l *spawnLog) assertReaped(t *testing.T, want ...int) {
	t.Helper()
	if got := l.spawned(); !slices.Equal(got, want) {
		t.Errorf("processes spawned for workers %v, want %v", got, want)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for w, cmd := range l.cmds {
		if cmd.ProcessState == nil {
			t.Errorf("worker %d's process was not reaped by Close", w)
		}
	}
}

// acquisitions lists the acquire events as "worker:detail".
func acquisitions(co *Coordinator) []string {
	var out []string
	for _, e := range co.Events() {
		if e.Kind == cluster.EventAcquire {
			out = append(out, fmt.Sprintf("%d:%s", e.Worker, e.Detail))
		}
	}
	return out
}

// standbyJobs are the jobs every standby cell runs: CC on an undirected
// grid, PageRank on the directed Twitter-like graph, each failing worker
// 1 at the boundary after superstep at.
var standbyJobs = []struct {
	kind string
	g    *graph.Graph
	at   int
}{
	{KindCC, gen.Grid(8, 8), 1},
	{KindPageRank, gen.Twitter(300, 7), 2},
}

// assertConverged holds a run to internal/algo/ref.
func assertConverged(t *testing.T, kind string, g *graph.Graph, got procRun) {
	t.Helper()
	if kind == KindCC {
		if !reflect.DeepEqual(got.labels, ref.ConnectedComponents(g)) {
			t.Error("labels differ from the reference")
		}
		return
	}
	want, _ := ref.PageRank(g, ref.PageRankOptions{})
	if l1 := rankL1(got.ranks, want); len(got.ranks) != len(want) || l1 > 1e-9 {
		t.Errorf("ranks are L1 %.3g from the reference", l1)
	}
}

// waitStandby waits for the standby's spawn and returns its process.
func waitStandby(t *testing.T, co *Coordinator) *workerProc {
	t.Helper()
	co.mu.Lock()
	s := co.standby
	co.mu.Unlock()
	if s == nil {
		t.Fatal("no standby kept")
	}
	<-s.ready
	if s.p == nil {
		t.Fatal("the standby's spawn failed")
	}
	return s.p
}

// waitGone polls until the coordinator has seen p leave.
func waitGone(t *testing.T, co *Coordinator, p *workerProc) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		co.mu.Lock()
		gone := p.goneLocked()
		co.mu.Unlock()
		if gone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never left", p.id)
		}
	}
}

// TestStandbyAdoptedWhileItsSpawnRuns holds the standby's spawn for a
// second, so the failure lands before it has finished: the acquisition
// waits for it and adopts it rather than spawning a second process.
func TestStandbyAdoptedWhileItsSpawnRuns(t *testing.T) {
	for _, tc := range standbyJobs {
		t.Run(tc.kind, func(t *testing.T) {
			log := &spawnLog{edit: func(w int, _ *oexec.Cmd) {
				if w == eqWorkers {
					time.Sleep(time.Second)
				}
			}}
			co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) { c.Spawn = log.spawn })
			var failedAt time.Time
			got := runProcOn(t, co, tc.kind, tc.g, recovery.Optimistic{}, func(*Coordinator) failure.Injector {
				return &atBoundary{at: tc.at, act: func() []int { failedAt = time.Now(); return []int{1} }}
			})
			log.assertReaped(t, 0, 1, 2)
			if standbyDone := log.at[2]; !failedAt.Before(standbyDone) {
				t.Errorf("the failure landed %v after the standby's spawn was under way for a second: nothing was waited for",
					failedAt.Sub(standbyDone))
			}
			if acq := acquisitions(co); !slices.Equal(acq, []string{"2:warm standby"}) {
				t.Errorf("acquisitions %v, want the standby, worker 2", acq)
			}
			if st := co.NetStats(); got.res.Failures != 1 || st.Condemned != 1 {
				t.Errorf("%d failures, %d condemned, want 1 and 1", got.res.Failures, st.Condemned)
			}
			assertConverged(t, tc.kind, tc.g, got)
		})
	}
}

// TestStandbyKilledIdleIsDiscarded SIGKILLs the standby before any job
// runs: it is no member, so its death condemns nobody, and the failure
// that follows finds it dead, discards it and spawns cold — worker 3,
// the standby having reserved 2.
func TestStandbyKilledIdleIsDiscarded(t *testing.T) {
	for _, tc := range standbyJobs {
		t.Run(tc.kind, func(t *testing.T) {
			log := &spawnLog{}
			co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) { c.Spawn = log.spawn })
			p := waitStandby(t, co)
			p.cmd.Process.Kill()
			waitGone(t, co, p)
			got := runProcOn(t, co, tc.kind, tc.g, recovery.Optimistic{}, boundaryKill(t, tc.at, false))
			log.assertReaped(t, 0, 1, 2, 3)
			if acq := acquisitions(co); !slices.Equal(acq, []string{"3:cold spawn"}) {
				t.Errorf("acquisitions %v, want a cold spawn of worker 3", acq)
			}
			if st := co.NetStats(); got.res.Failures != 1 || st.Condemned != 1 {
				t.Errorf("%d failures, %d condemned, want 1 and 1: the idle standby's death is no failure",
					got.res.Failures, st.Condemned)
			}
			assertConverged(t, tc.kind, tc.g, got)
		})
	}
}

// TestStandbyRedialIsFenced severs the idle standby's connections. A
// standby is no member, so its redial is fenced like a zombie's rather
// than admitted; the broken beat stream marks it gone at once, and the
// failure that follows spawns cold.
func TestStandbyRedialIsFenced(t *testing.T) {
	for _, tc := range standbyJobs {
		t.Run(tc.kind, func(t *testing.T) {
			nw := netfault.New(13)
			log := &spawnLog{}
			co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) { c.NetFault = nw; c.Spawn = log.spawn })
			p := waitStandby(t, co)
			nw.Sever(p.id)
			waitGone(t, co, p)
			for deadline := time.Now().Add(10 * time.Second); co.NetStats().Fenced == 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the severed standby's redial was never fenced")
				}
			}
			got := runProcOn(t, co, tc.kind, tc.g, recovery.Optimistic{}, boundaryKill(t, tc.at, false))
			log.assertReaped(t, 0, 1, 2, 3)
			if acq := acquisitions(co); !slices.Equal(acq, []string{"3:cold spawn"}) {
				t.Errorf("acquisitions %v, want a cold spawn of worker 3", acq)
			}
			if st := co.NetStats(); st.Condemned != 1 || st.Reconnects != 0 {
				t.Errorf("NetStats %+v: want 1 condemned and no reconnect admitted", st)
			}
			assertConverged(t, tc.kind, tc.g, got)
		})
	}
}

// TestStandbyDyingBeforeItsLoadIsFolded SIGKILLs the standby once it has
// been adopted, while its LoadReq is held on the wire. Its death is one
// more failure, folded into the recovery as a death under the
// compensation is: the compensation reports it, the loop (or the
// supervisor) fails it and spawns cold — no standby is kept until the
// next job — and compensates again.
func TestStandbyDyingBeforeItsLoadIsFolded(t *testing.T) {
	for _, tc := range standbyJobs {
		for _, supervised := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/supervised=%v", tc.kind, supervised), func(t *testing.T) {
				nw := netfault.New(29)
				log := &spawnLog{}
				hook := func(_, w int) (time.Duration, error) {
					if w == eqWorkers {
						nw.SetFaults(w, netfault.Outbound, netfault.Faults{DelayP: 1, Delay: 200 * time.Millisecond})
						log.mu.Lock()
						victim := log.cmds[w]
						log.mu.Unlock()
						time.AfterFunc(20*time.Millisecond, func() { victim.Process.Kill() })
					}
					return 0, nil
				}
				co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) {
					c.NetFault, c.Spawn = nw, log.spawn
					c.Cluster = []cluster.Option{cluster.WithAcquireHook(hook)}
				})
				var verdicts []error
				got := runProcOn(t, co, tc.kind, tc.g, recovery.Optimistic{}, boundaryKill(t, tc.at, false), func(r *procRig) {
					if supervised {
						r.loop.Supervisor = supervise.New(co, r.loop.Policy, r.loop.Injector, supervise.Config{Spares: -1})
					}
					r.loop.Job = compensating{Job: r.job, after: func(_ []int, err error) { verdicts = append(verdicts, err) }}
				})
				log.assertReaped(t, 0, 1, 2, 3)
				var wf *exec.WorkerFailure
				if len(verdicts) != 2 || !errors.As(verdicts[0], &wf) || !slices.Equal(wf.Workers, []int{2}) || verdicts[1] != nil {
					t.Fatalf("compensations returned %v, want a worker failure naming the standby, then success", verdicts)
				}
				if acq := acquisitions(co); !slices.Equal(acq, []string{"2:warm standby", "3:cold spawn"}) {
					t.Errorf("acquisitions %v, want the standby, then a cold spawn", acq)
				}
				if st := co.NetStats(); got.res.Failures != 2 || st.Condemned != 2 {
					t.Errorf("%d failures, %d condemned, want 2 and 2", got.res.Failures, st.Condemned)
				}
				assertConverged(t, tc.kind, tc.g, got)
			})
		}
	}
}

// TestStandbyLeaksNoProcess runs a supervised recovery that cannot
// acquire: the acquire hook refuses every attempt, or the spare pool is
// empty. The orphans go to the survivor, and no process is spawned
// beyond the members and — while the pool is not empty — the standby,
// which stays idle until Close reaps it.
func TestStandbyLeaksNoProcess(t *testing.T) {
	refuse := func(int, int) (time.Duration, error) { return 0, errors.New("no machine") }
	for name, tc := range map[string]struct {
		mutate  func(*Config)
		spawned []int
	}{
		"hook error":    {func(c *Config) { c.Cluster = []cluster.Option{cluster.WithAcquireHook(refuse)} }, []int{0, 1, 2}},
		"pool is empty": {func(c *Config) { c.Cluster = []cluster.Option{cluster.WithSpares(0)} }, []int{0, 1}},
	} {
		for _, job := range standbyJobs {
			t.Run(name+"/"+job.kind, func(t *testing.T) {
				log := &spawnLog{}
				co := startTestCluster(t, eqWorkers, eqParts, func(c *Config) { c.Spawn = log.spawn; tc.mutate(c) })
				got := runProcOn(t, co, job.kind, job.g, recovery.Optimistic{}, boundaryKill(t, job.at, false), func(r *procRig) {
					r.loop.Supervisor = supervise.New(co, r.loop.Policy, r.loop.Injector, supervise.Config{})
				})
				log.assertReaped(t, tc.spawned...)
				if acq := acquisitions(co); len(acq) != 0 {
					t.Errorf("acquisitions %v, want none", acq)
				}
				if st := co.NetStats(); got.res.Failures != 1 || st.Condemned != 1 || len(got.stats) != 1 {
					t.Errorf("%d failures, %d condemned, %d workers left; want 1, 1 and the lone survivor",
						got.res.Failures, st.Condemned, len(got.stats))
				}
				assertConverged(t, job.kind, job.g, got)
			})
		}
	}
}

// TestCloseDuringSpawnReapsChild closes the coordinator while the
// standby's spawn waits for a handshake that cannot come — the child
// dialed a listener that never answers. Close must abort that spawn,
// kill its child and reap it, instead of waiting out SpawnTimeout.
func TestCloseDuringSpawnReapsChild(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	spawning := make(chan struct{})
	log := &spawnLog{edit: func(w int, cmd *oexec.Cmd) {
		if w == 1 {
			cmd.Env = append(cmd.Env, envAddr+"="+silent.Addr().String())
			close(spawning)
		}
	}}
	co := startTestCluster(t, 1, 1, func(c *Config) {
		c.Spawn = log.spawn
		c.HandshakeTimeout = 30 * time.Second
	})
	<-spawning
	time.Sleep(100 * time.Millisecond) // let the child start and block on its Hello
	start := time.Now()
	co.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a spawn in flight, want < 1s", took)
	}
	log.assertReaped(t, 0, 1)
	if ps := log.cmds[1].ProcessState; ps != nil && ps.Success() {
		t.Errorf("the standby's child exited cleanly (%v), want it killed", ps)
	}
}
