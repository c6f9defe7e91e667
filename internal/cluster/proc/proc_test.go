package proc

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"optiflow/internal/algo/ref"
	"optiflow/internal/cluster"
	"optiflow/internal/graph"
	"optiflow/internal/iterate"
	"optiflow/internal/recovery"
)

// startTestCluster boots a coordinator with real worker processes and
// registers cleanup. mutate may adjust the config before Start.
func startTestCluster(t *testing.T, workers, partitions int, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Workers:     workers,
		Partitions:  partitions,
		Heartbeat:   50 * time.Millisecond,
		CallTimeout: 5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if cfg.HandshakeTimeout == 0 {
		// Tests shorten CallTimeout to time their faults; the handshake of
		// a freshly spawned worker on a loaded machine is not one of them.
		cfg.HandshakeTimeout = 5 * time.Second
	}
	co, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// TestCoordinatorMirrorsSimulation drives the same membership script
// against the proc coordinator and the in-process simulation and
// demands identical observable state after every op — the "one
// Interface, two deployments" contract.
func TestCoordinatorMirrorsSimulation(t *testing.T) {
	co := startTestCluster(t, 3, 6, func(c *Config) { c.Cluster = []cluster.Option{cluster.WithSpares(2)} })
	sim := cluster.New(3, 6, cluster.WithSpares(2))

	// The logs compare by kind, worker and partitions: detection events
	// exist only with real processes, and Detail and Latency say how a
	// backend provisioned, not what membership did.
	membership := func(evs []cluster.Event) []cluster.Event {
		var out []cluster.Event
		for _, e := range evs {
			if e.Kind != cluster.EventSuspect && e.Kind != cluster.EventCondemn {
				out = append(out, cluster.Event{Kind: e.Kind, Worker: e.Worker, Partitions: e.Partitions})
			}
		}
		return out
	}
	check := func(stage string) {
		t.Helper()
		if got, want := membership(co.Events()), membership(sim.Events()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Events proc=%+v sim=%+v", stage, got, want)
		}
		if got, want := co.Workers(), sim.Workers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Workers proc=%v sim=%v", stage, got, want)
		}
		if got, want := co.Spares(), sim.Spares(); got != want {
			t.Fatalf("%s: Spares proc=%d sim=%d", stage, got, want)
		}
		if got, want := co.Orphaned(), sim.Orphaned(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Orphaned proc=%v sim=%v", stage, got, want)
		}
		for p := 0; p < co.NumPartitions(); p++ {
			if got, want := co.Owner(p), sim.Owner(p); got != want {
				t.Fatalf("%s: Owner(%d) proc=%d sim=%d", stage, p, got, want)
			}
		}
	}
	check("initial")

	if got, want := co.Fail(1), sim.Fail(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fail(1): lost partitions proc=%v sim=%v", got, want)
	}
	check("after Fail(1)")

	// Typed Release rejections must match sentinel for sentinel.
	for _, tc := range []struct {
		name     string
		worker   int
		sentinel error
	}{
		{"unknown", 99, cluster.ErrUnknownWorker},
		{"dead", 1, cluster.ErrDeadWorker},
		// The warm standby's ID 3 is reserved, not provisioned.
		{"reserved standby", 3, cluster.ErrUnknownWorker},
	} {
		for impl, rel := range map[string]func(int) error{"proc": co.Release, "sim": sim.Release} {
			err := rel(tc.worker)
			var re *cluster.ReleaseError
			if !errors.As(err, &re) {
				t.Fatalf("Release(%s) on %s: got %v, want *cluster.ReleaseError", tc.name, impl, err)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("Release(%s) on %s: reason %v, want %v", tc.name, impl, re.Reason, tc.sentinel)
			}
		}
	}
	check("after rejected releases")

	gotW, gotA, gotErr := co.AcquireN(1)
	wantW, wantA, wantErr := sim.AcquireN(1)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("AcquireN(1): err proc=%v sim=%v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("AcquireN(1): proc=(%v,%v) sim=(%v,%v)", gotW, gotA, wantW, wantA)
	}
	check("after AcquireN(1)")

	if err, serr := co.Release(0), sim.Release(0); (err == nil) != (serr == nil) {
		t.Fatalf("Release(0): proc=%v sim=%v", err, serr)
	}
	check("after Release(0)")

	// Double release of the now-gone worker 0.
	for impl, rel := range map[string]func(int) error{"proc": co.Release, "sim": sim.Release} {
		if err := rel(0); !errors.Is(err, cluster.ErrDoubleRelease) {
			t.Fatalf("double Release(0) on %s: got %v, want ErrDoubleRelease", impl, err)
		}
	}

	// Exhaust the bounded pool identically: 1 spare left after
	// fail+acquire (-1) and release (+1) juggling.
	gotW, _, _ = co.AcquireN(5)
	wantW, _, _ = sim.AcquireN(5)
	if len(gotW) != len(wantW) {
		t.Fatalf("AcquireN(5) grants: proc=%v sim=%v", gotW, wantW)
	}
	check("after exhausting spares")
}

// TestDetectionNoticesKilledProcess SIGKILLs a worker behind the
// bookkeeping's back (the chaos path) and waits for detection to
// surface it: the reaper, the broken connections or the missed
// heartbeat window — whichever notices first.
func TestDetectionNoticesKilledProcess(t *testing.T) {
	co := startTestCluster(t, 2, 4, nil)
	if !co.Kill(1) {
		t.Fatal("Kill(1) found no process")
	}
	alive := []int{0, 1}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ws := co.DetectedFailures(alive); len(ws) == 1 && ws[0] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detection never reported worker 1; got %v", co.DetectedFailures(alive))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The detector folds detected deaths into any schedule.
	d := DetectFailures(co, nil)
	if got := d.FailuresAt(0, 0, alive); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Detector.FailuresAt = %v, want [1]", got)
	}
	if got := d.FailuresDuringRecovery(0, 0, 1, alive); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Detector.FailuresDuringRecovery = %v, want [1]", got)
	}
}

// TestLivenessWindow pins the pure heartbeat-window math.
func TestLivenessWindow(t *testing.T) {
	base := time.Unix(1000, 0)
	l := newLiveness(2 * time.Second)
	l.track(7, base)
	if l.overdue(7, base.Add(2*time.Second)) {
		t.Fatal("exactly at the window edge must not be overdue")
	}
	if !l.overdue(7, base.Add(2*time.Second+time.Nanosecond)) {
		t.Fatal("past the window must be overdue")
	}
	l.beat(7, base.Add(3*time.Second))
	if l.overdue(7, base.Add(4*time.Second)) {
		t.Fatal("a beat must reset the window")
	}
	if l.overdue(99, base.Add(time.Hour)) {
		t.Fatal("untracked workers are never overdue")
	}
	l.forget(7)
	if l.overdue(7, base.Add(time.Hour)) {
		t.Fatal("forgotten workers are never overdue")
	}
}

// TestReleaseMigratesState runs a CC job to convergence, releases a
// worker, and demands the released worker's partition state survived
// the migration to the survivors.
func TestReleaseMigratesState(t *testing.T) {
	co := startTestCluster(t, 3, 6, nil)
	g := ccTestGraph()
	job, err := NewJob(co, Spec{Name: "cc-release", Kind: KindCC, Graph: g})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	loop := &iterate.Loop{
		Name:    "cc-release",
		Step:    job.Step,
		Done:    iterate.DeltaDone(job.WorksetLen),
		Job:     job,
		Policy:  recovery.None{},
		Cluster: co,
	}
	if _, err := loop.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := co.Release(1); err != nil {
		t.Fatalf("Release(1): %v", err)
	}
	if alive := co.IsAlive(1); alive {
		t.Fatal("released worker still alive")
	}
	got, err := job.Components()
	if err != nil {
		t.Fatalf("Components after release: %v", err)
	}
	if want := ref.ConnectedComponents(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-release components diverged:\n got %v\nwant %v", got, want)
	}
}

func ccTestGraph() *graph.Graph {
	b := graph.NewBuilder(false)
	// Component one: a path.
	for v := graph.VertexID(1); v < 5; v++ {
		b.AddEdge(v, v+1)
	}
	// Component two: a triangle.
	b.AddEdge(10, 11).AddEdge(11, 12).AddEdge(10, 12)
	// Component three: an isolated vertex.
	b.AddVertex(20)
	return b.Build()
}
