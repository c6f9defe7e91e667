package proc

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
	"optiflow/internal/supervise"

	"optiflow/internal/cluster/proc/netfault"
)

// netScript is a failure.Injector that delivers scripted NETWORK
// strikes at superstep boundaries and never reports a failure — the
// suspicion ladder alone decides whether a struck worker survives.
type netScript struct {
	strikes map[int]func()
	fired   map[int]bool
}

func scriptNet(strikes map[int]func()) *netScript {
	return &netScript{strikes: strikes, fired: make(map[int]bool)}
}

func (n *netScript) FailuresAt(superstep, _ int, _ []int) []int {
	if f, ok := n.strikes[superstep]; ok && !n.fired[superstep] {
		n.fired[superstep] = true
		f()
	}
	return nil
}

// TestHandshakeDeadlineFromConfig pins the handshake read deadline to
// the configured value instead of the formerly hardcoded 10s: a silent
// dial is cut quickly, while a slow-but-within-deadline Hello is still
// read and answered.
func TestHandshakeDeadlineFromConfig(t *testing.T) {
	co := startTestCluster(t, 1, 1, func(c *Config) {
		c.HandshakeTimeout = 500 * time.Millisecond
	})

	// A connection that never sends its Hello must be cut at roughly the
	// configured deadline — far below the old hardcoded 10 seconds.
	nc, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	start := time.Now()
	nc.SetReadDeadline(time.Now().Add(8 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection was answered without a Hello")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("silent handshake lingered %v; deadline is not derived from config", elapsed)
	}

	// A Hello that arrives slowly but within the deadline is still read:
	// the rejection proves the coordinator waited for it.
	nc2, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc2.Close()
	time.Sleep(200 * time.Millisecond)
	hello := Hello{Worker: 0, Token: "wrong-token", Conn: ConnCtrl}
	if err := writeFrame(nc2, 0, hello); err != nil {
		t.Fatalf("writing slow hello: %v", err)
	}
	nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, m, err := readFrame(nc2, nil)
	if err != nil {
		t.Fatalf("reading handshake response: %v", err)
	}
	if e, ok := m.(ErrResp); !ok || !strings.Contains(e.Msg, "handshake rejected") {
		t.Fatalf("slow bad-token hello answered with %#v, want handshake rejection", m)
	}
}

// TestHandshakeForeignVersion pins the frame version byte as the
// protocol's only version, from both ends of a handshake. A Hello
// stamped with another version, token and role right, is not decoded:
// its connection closes with no answer and nothing is counted as
// fenced, while a correct Hello from the same worker is then answered
// as ever. A coordinator answering with another version fails the
// worker's dialHandshake with an error wrapping *VersionError.
func TestHandshakeForeignVersion(t *testing.T) {
	t.Run("stale worker", func(t *testing.T) {
		co := startTestCluster(t, 1, 1, nil)
		frame, err := encodeFrame(0, Hello{Worker: 0, Token: co.token, Conn: ConnCtrl})
		if err != nil {
			t.Fatal(err)
		}
		frame[netfault.HeaderLen]++
		nc, err := net.Dial("tcp", co.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("writing the stale hello: %v", err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, m, err := readFrame(nc, nil); err == nil || isTimeout(err) {
			t.Fatalf("stale hello answered with %#v (err %v), want the connection closed", m, err)
		}
		if f := co.NetStats().Fenced; f != 0 {
			t.Errorf("NetStats.Fenced = %d after a stale hello, want 0", f)
		}
		cfg := WorkerConfig{Addr: co.Addr(), Worker: 0, Token: co.token}.withDefaults()
		ctrl, err := dialHandshake(cfg, ConnCtrl)
		if err != nil {
			t.Fatalf("a correct hello after the stale one: %v", err)
		}
		ctrl.Close()
		// The worker's own ctrl connection was swapped out for ours; it
		// redials, and the coordinator's calls reach it again.
		if _, err := co.call(0, PingReq{}); err != nil {
			t.Fatalf("PingReq after the handshakes: %v", err)
		}
	})
	t.Run("stale coordinator", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		served := make(chan error, 1)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				served <- err
				return
			}
			defer nc.Close()
			if _, _, err := readFrame(nc, nil); err != nil {
				served <- err
				return
			}
			frame, err := encodeFrame(0, HelloOK{})
			if err == nil {
				frame[netfault.HeaderLen]++
				_, err = nc.Write(frame)
			}
			served <- err
		}()
		cfg := WorkerConfig{Addr: ln.Addr().String(), Worker: 1, Token: "tok"}.withDefaults()
		_, err = dialHandshake(cfg, ConnCtrl)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != wireVersion+1 {
			t.Errorf("dialHandshake against a stale coordinator: err = %v, want a *VersionError for version %d", err, wireVersion+1)
		}
		if err := <-served; err != nil {
			t.Fatalf("stale coordinator: %v", err)
		}
	})
}

// TestReconnectResumesWithZeroRecoveryRounds severs a worker's TCP
// connections mid-job (the process stays alive) and demands the worker
// rejoin within the suspicion grace with NO recovery rounds: the
// retrying RPC layer plus the worker's redial absorb the fault
// entirely. recovery.None makes the assertion fail-closed — any
// recovery attempt would error the run.
func TestReconnectResumesWithZeroRecoveryRounds(t *testing.T) {
	nw := netfault.New(7)
	co := startTestCluster(t, 3, 6, func(c *Config) {
		c.NetFault = nw
		c.CallTimeout = 500 * time.Millisecond
		c.SuspicionGrace = 10 * time.Second
		c.ReconnectGrace = 20 * time.Second
		c.LivenessWindow = 10 * time.Second
		c.StragglerMin = 20 * time.Second
	})
	g := ccTestGraph()
	want := ref.ConnectedComponents(g)
	job, err := NewJob(co, Spec{Name: "cc-reconnect", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	script := scriptNet(map[int]func(){1: func() { nw.Sever(1) }})
	loop := &iterate.Loop{
		Name:     "cc-reconnect",
		Step:     job.Step,
		Done:     iterate.DeltaDone(job.WorksetLen),
		Job:      job,
		Policy:   recovery.None{},
		Cluster:  co,
		Injector: DetectFailures(co, script),
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failures != 0 {
		t.Fatalf("severed connection caused %d recovery round(s), want 0", res.Failures)
	}
	st := co.NetStats()
	if st.Reconnects < 1 {
		t.Fatalf("NetStats.Reconnects = %d, want >= 1 after a sever", st.Reconnects)
	}
	if st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0 — the blip was within grace", st.Condemned)
	}
	got, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components diverged after reconnect:\n got %v\nwant %v", got, want)
	}
}

// TestIdempotentRetryNoDuplicateSideEffects drops exactly one RPC
// response on the wire: the coordinator retries with the same token and
// the worker answers from its idempotence cache instead of re-applying
// the request. The worker's own counters are the witness.
func TestIdempotentRetryNoDuplicateSideEffects(t *testing.T) {
	nw := netfault.New(3)
	co := startTestCluster(t, 2, 2, func(c *Config) {
		c.NetFault = nw
		c.CallTimeout = 300 * time.Millisecond
		c.SuspicionGrace = 5 * time.Second
		// Keep the beat stream quiet so the scripted drop hits the RPC
		// response, not a heartbeat frame.
		c.Heartbeat = 5 * time.Second
		c.LivenessWindow = 30 * time.Second
	})

	if _, err := co.call(1, PingReq{}); err != nil {
		t.Fatalf("baseline ping: %v", err)
	}
	nw.DropNext(1, netfault.Inbound, 1)
	if _, err := co.call(1, PingReq{}); err != nil {
		t.Fatalf("ping with dropped response: %v", err)
	}

	resp, err := co.call(1, StatsReq{})
	if err != nil {
		t.Fatalf("StatsReq: %v", err)
	}
	ws := resp.(WorkerStats)
	if ws.Replayed < 1 {
		t.Fatalf("WorkerStats.Replayed = %d, want >= 1 — the retry was re-applied, not replayed", ws.Replayed)
	}
	if ws.Handled != 2 {
		t.Fatalf("WorkerStats.Handled = %d, want exactly 2 — a duplicate side effect landed", ws.Handled)
	}
	st := co.NetStats()
	if st.RPCRetries < 1 {
		t.Fatalf("NetStats.RPCRetries = %d, want >= 1", st.RPCRetries)
	}
	if st.Condemned != 0 {
		t.Fatalf("NetStats.Condemned = %d, want 0", st.Condemned)
	}
}

// TestHealAfterCondemnFencesZombie partitions a worker long enough for
// the ladder to condemn it, lets recovery replace it WITHOUT killing
// the process (LeaveZombies), then heals the partition: the zombie's
// redial must be fenced — its handshake rejected — so it can never
// write into the recovered job.
func TestHealAfterCondemnFencesZombie(t *testing.T) {
	nw := netfault.New(11)
	co := startTestCluster(t, 3, 6, func(c *Config) {
		c.NetFault = nw
		c.LeaveZombies = true
		c.CallTimeout = 250 * time.Millisecond
		c.SuspicionGrace = 750 * time.Millisecond
		c.ReconnectGrace = 30 * time.Second
		c.StragglerMin = 10 * time.Second
		c.LivenessWindow = 2 * time.Second
	})
	g := ccTestGraph()
	want := ref.ConnectedComponents(g)
	job, err := NewJob(co, Spec{Name: "cc-zombie", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	script := scriptNet(map[int]func(){1: func() { nw.Partition(1) }})
	loop := &iterate.Loop{
		Name:     "cc-zombie",
		Step:     job.Step,
		Done:     iterate.DeltaDone(job.WorksetLen),
		Job:      job,
		Policy:   recovery.Optimistic{},
		Cluster:  co,
		Injector: DetectFailures(co, script),
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failures < 1 {
		t.Fatalf("partition never became a failure (res.Failures = %d)", res.Failures)
	}
	if st := co.NetStats(); st.Condemned < 1 {
		t.Fatalf("NetStats.Condemned = %d, want >= 1", st.Condemned)
	}
	got, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components diverged after recovery:\n got %v\nwant %v", got, want)
	}

	// Heal the partition: the zombie process is still alive and
	// redialing; its handshake must now be rejected at the fence.
	nw.HealAll()
	deadline := time.Now().Add(15 * time.Second)
	for co.NetStats().Fenced < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("healed zombie was never fenced (NetStats: %+v)", co.NetStats())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStragglerIsCondemnedAndRecovered partitions only the inbound half
// of a worker's link: the worker receives its step request and computes
// happily, but every response vanishes. The per-superstep straggler
// watchdog — not the generic RPC retry budget — must condemn it, and
// the job must recover and converge.
func TestStragglerIsCondemnedAndRecovered(t *testing.T) {
	nw := netfault.New(5)
	co := startTestCluster(t, 3, 6, func(c *Config) {
		c.NetFault = nw
		c.CallTimeout = 2 * time.Second
		c.SuspicionGrace = 10 * time.Second
		c.StragglerFactor = 2
		c.StragglerMin = 300 * time.Millisecond
		c.LivenessWindow = 10 * time.Second
	})
	g := ccTestGraph()
	want := ref.ConnectedComponents(g)
	job, err := NewJob(co, Spec{Name: "cc-straggler", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	script := scriptNet(map[int]func(){1: func() { nw.PartitionInbound(1) }})
	loop := &iterate.Loop{
		Name:     "cc-straggler",
		Step:     job.Step,
		Done:     iterate.DeltaDone(job.WorksetLen),
		Job:      job,
		Policy:   recovery.Optimistic{},
		Cluster:  co,
		Injector: DetectFailures(co, script),
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failures < 1 {
		t.Fatalf("straggler never became a failure (res.Failures = %d)", res.Failures)
	}
	var straggled bool
	for _, e := range co.Events() {
		if e.Kind == cluster.EventCondemn && strings.Contains(e.Detail, "straggling") {
			straggled = true
		}
	}
	if !straggled {
		t.Fatalf("no condemn event blames straggling; events: %v", co.Events())
	}
	if st := co.NetStats(); st.Condemned < 1 {
		t.Fatalf("NetStats.Condemned = %d, want >= 1", st.Condemned)
	}
	got, err := job.Components()
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components diverged after straggler recovery:\n got %v\nwant %v", got, want)
	}
}

// blipPolicies is the transient-blip matrix: every policy, including
// "none" — a blip inside the grace window must cost zero recovery
// rounds, so even the policy that cannot recover completes.
var blipPolicies = []struct {
	name   string
	policy func() recovery.Policy
}{
	{"none", func() recovery.Policy { return recovery.None{} }},
	{"optimistic", func() recovery.Policy { return recovery.Optimistic{} }},
	{"checkpoint", func() recovery.Policy { return recovery.NewCheckpoint(1, checkpoint.NewMemoryStore()) }},
	{"restart", func() recovery.Policy { return recovery.Restart{} }},
}

// blipConfig tunes a cluster so scripted delay/drop/sever blips stay
// comfortably inside every grace window.
func blipConfig(nw *netfault.Network) func(*Config) {
	return func(c *Config) {
		c.NetFault = nw
		c.CallTimeout = 500 * time.Millisecond
		c.SuspicionGrace = 8 * time.Second
		c.ReconnectGrace = 20 * time.Second
		c.LivenessWindow = 8 * time.Second
		c.StragglerMin = 20 * time.Second
	}
}

// blipSchedule scripts one of each transient fault kind: a sever
// (reconnect path), a dropped request frame (idempotent retry path) and
// a delay burst under the call timeout (pure latency).
func blipSchedule(nw *netfault.Network) *netScript {
	return scriptNet(map[int]func(){
		1: func() { nw.Sever(1) },
		2: func() { nw.DropNext(0, netfault.Outbound, 1) },
		3: func() {
			f := netfault.Faults{DelayP: 1, Delay: 100 * time.Millisecond}
			nw.SetFaults(2, netfault.Inbound, f)
			nw.SetFaults(2, netfault.Outbound, f)
		},
		4: func() {
			nw.SetFaults(2, netfault.Inbound, netfault.Faults{})
			nw.SetFaults(2, netfault.Outbound, netfault.Faults{})
		},
	})
}

// TestNetChaosTransientBlipsCC: scripted sever/drop/delay blips inside
// the grace window, Connected Components under every policy, zero
// recovery rounds.
func TestNetChaosTransientBlipsCC(t *testing.T) {
	g := ccTestGraph()
	want := ref.ConnectedComponents(g)
	for _, tc := range blipPolicies {
		t.Run(tc.name, func(t *testing.T) {
			nw := netfault.New(17)
			co := startTestCluster(t, 3, 6, blipConfig(nw))
			job, err := NewJob(co, Spec{Name: "cc-blip-" + tc.name, Kind: KindCC, Graph: g})
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			loop := &iterate.Loop{
				Name:     "cc-blip-" + tc.name,
				Step:     job.Step,
				Done:     iterate.DeltaDone(job.WorksetLen),
				Job:      job,
				Policy:   tc.policy(),
				Cluster:  co,
				Injector: DetectFailures(co, blipSchedule(nw)),
			}
			res, err := loop.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Failures != 0 {
				t.Fatalf("transient blips caused %d recovery round(s), want 0", res.Failures)
			}
			if st := co.NetStats(); st.Condemned != 0 {
				t.Fatalf("NetStats.Condemned = %d, want 0", st.Condemned)
			}
			got, err := job.Components()
			if err != nil {
				t.Fatalf("Components: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("components diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestNetChaosTransientBlipsPageRank is the bulk-iteration counterpart
// with float convergence on the line.
func TestNetChaosTransientBlipsPageRank(t *testing.T) {
	g := prTestGraph()
	want, _ := ref.PageRank(g, ref.PageRankOptions{})
	for _, tc := range blipPolicies {
		t.Run(tc.name, func(t *testing.T) {
			nw := netfault.New(19)
			co := startTestCluster(t, 3, 6, blipConfig(nw))
			job, err := NewJob(co, Spec{Name: "pr-blip-" + tc.name, Kind: KindPageRank, Graph: g})
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			loop := &iterate.Loop{
				Name: "pr-blip-" + tc.name,
				Step: job.Step,
				Done: iterate.BulkDone(200, func(int) bool {
					return job.LastL1() < 1e-11
				}),
				Job:      job,
				Policy:   tc.policy(),
				Cluster:  co,
				Injector: DetectFailures(co, blipSchedule(nw)),
			}
			res, err := loop.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Failures != 0 {
				t.Fatalf("transient blips caused %d recovery round(s), want 0", res.Failures)
			}
			got, err := job.Ranks()
			if err != nil {
				t.Fatalf("Ranks: %v", err)
			}
			for v, w := range want {
				d := got[v] - w
				if d < 0 {
					d = -d
				}
				if d > 1e-6 {
					t.Errorf("rank[%d] = %.9f, want %.9f", v, got[v], w)
				}
			}
		})
	}
}

// TestNetChaosSoak is the network-fault soak gate: crash chaos (real
// SIGKILLs) plus network chaos (severs, delay bursts, partitions) under
// each recovering policy, asserting at least one strike of each surface
// landed and the job still converged to ground truth.
func TestNetChaosSoak(t *testing.T) {
	g := soakGraph()
	want := ref.ConnectedComponents(g)
	for _, tc := range recoveryMatrix {
		t.Run(tc.name, func(t *testing.T) {
			nw := netfault.New(23)
			co := startTestCluster(t, 4, 8, func(c *Config) {
				c.NetFault = nw
				c.CallTimeout = 300 * time.Millisecond
				c.SuspicionGrace = 1 * time.Second
				c.ReconnectGrace = 6 * time.Second
				c.LivenessWindow = 5 * time.Second
				c.StragglerMin = 5 * time.Second
			})
			job, err := NewJob(co, Spec{Name: "cc-netsoak-" + tc.name, Kind: KindCC, Graph: g})
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			chaos := NewChaos(co, 1).
				WithProbabilities(0.5, 0.05, 0.1).
				WithMaxFailures(2).
				WithNetwork(nw, 1.0, 3)
			inj := DetectFailures(co, chaos)
			sup := supervise.New(co, tc.policy(), inj, supervise.Config{Spares: -1})
			loop := &iterate.Loop{
				Name:       "cc-netsoak-" + tc.name,
				Step:       job.Step,
				Done:       iterate.DeltaDone(job.WorksetLen),
				Job:        job,
				Policy:     tc.policy(),
				Cluster:    co,
				Injector:   inj,
				Supervisor: sup,
				MaxTicks:   500,
			}
			res, err := loop.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if chaos.Killed() < 1 {
				t.Fatalf("soak delivered %d real SIGKILLs, want >= 1", chaos.Killed())
			}
			net := chaos.NetDelivered()
			if net.Severed+net.Delayed+net.Partitioned < 1 {
				t.Fatalf("soak delivered no network strikes (%+v)", net)
			}
			got, err := job.Components()
			if err != nil {
				t.Fatalf("Components: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("soak components diverged from ground truth:\n got %v\nwant %v", got, want)
			}
			t.Logf("netsoak/%s: %d ticks, %d failures, %d kills, net strikes %+v, stats %+v",
				tc.name, res.Ticks, res.Failures, chaos.Killed(), net, co.NetStats())
		})
	}
}
