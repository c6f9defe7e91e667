package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/checkpoint"
	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
	"optiflow/internal/plot"
	"optiflow/internal/recovery"
)

// lollipopGraph is a dense blob (which converges immediately) with a
// chain tail (which keeps a narrow update stream alive) — the workload
// that separates checkpoint granularities.
func lollipopGraph(blob, tail int, seed int64) *graph.Graph {
	if blob < 100 {
		blob = 100
	}
	b := graph.NewBuilder(false)
	gen.BarabasiAlbert(blob, 4, seed, false).Edges(func(e graph.Edge) {
		if e.Src < e.Dst {
			b.AddEdge(e.Src, e.Dst)
		}
	})
	for i := 0; i < tail; i++ {
		from := graph.VertexID(blob + i - 1)
		if i == 0 {
			from = 0
		}
		b.AddEdge(from, graph.VertexID(blob+i))
	}
	return b.Build()
}

// Overhead regenerates the paper's headline claim (§1, §2.2): "since
// this recovery mechanism does not checkpoint any state, it achieves
// optimal failure-free performance". Failure-free PageRank runs under
// every policy, reporting runtime and checkpointing volume.
func (r *Runner) Overhead() (*Report, error) {
	g := gen.Twitter(r.cfg.TwitterSize, r.cfg.Seed)
	iters := 10

	type row struct {
		name     string
		policy   recovery.Policy
		elapsed  time.Duration
		overhead recovery.Overhead
	}

	diskDir, err := os.MkdirTemp("", "optiflow-ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: %v", err)
	}
	defer os.RemoveAll(diskDir)
	disk, err := checkpoint.NewDiskStore(diskDir)
	if err != nil {
		return nil, err
	}

	gzStore := checkpoint.Compressed(checkpoint.NewMemoryStore())
	rows := []row{
		{name: "none (no fault tolerance)", policy: recovery.None{}},
		{name: "optimistic (this paper)", policy: recovery.Optimistic{}},
		{name: "checkpoint k=5 (memory)", policy: recovery.NewCheckpoint(5, checkpoint.NewMemoryStore())},
		{name: "checkpoint k=2 (memory)", policy: recovery.NewCheckpoint(2, checkpoint.NewMemoryStore())},
		{name: "checkpoint k=1 (memory)", policy: recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())},
		{name: "checkpoint k=1 (disk)", policy: recovery.NewCheckpoint(1, disk)},
		{name: "checkpoint k=1 (gzip memory)", policy: recovery.NewCheckpoint(1, gzStore)},
	}

	for i := range rows {
		res, err := pagerank.Run(g, pagerank.Options{
			Parallelism:   r.cfg.Parallelism,
			MaxIterations: iters,
			Policy:        rows[i].policy,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: overhead run %q: %v", rows[i].name, err)
		}
		rows[i].elapsed = res.Elapsed
		rows[i].overhead = res.Overhead
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload: PageRank, %d iterations, failure-free, %d-vertex Twitter-like graph, parallelism %d\n\n",
		iters, r.cfg.TwitterSize, r.cfg.Parallelism)
	fmt.Fprintf(&b, "%-28s  %12s  %12s  %11s  %14s  %12s\n",
		"policy", "total time", "time/iter", "checkpoints", "bytes written", "ckpt time")
	for _, rw := range rows {
		fmt.Fprintf(&b, "%-28s  %12v  %12v  %11d  %14d  %12v\n",
			rw.name, rw.elapsed.Round(time.Microsecond),
			(rw.elapsed / time.Duration(iters)).Round(time.Microsecond),
			rw.overhead.Checkpoints, rw.overhead.BytesWritten,
			rw.overhead.CheckpointTime.Round(time.Microsecond))
	}
	b.WriteString("\n")
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, rw := range rows {
		labels[i] = rw.name
		values[i] = float64(rw.elapsed.Microseconds())
	}
	b.WriteString(plot.Bars("failure-free runtime (µs, lower is better)", labels, values, 40))

	// Checkpoint-granularity ablation on a delta iteration: full
	// snapshots vs per-partition incremental epochs (the async pipeline
	// writing only changed partitions) vs per-key delta logs.
	// Connected Components on a lollipop graph (a big blob that
	// converges immediately plus a tail that keeps a small update
	// stream alive) exposes the difference; see DESIGN.md.
	lolli := lollipopGraph(r.cfg.TwitterSize/10, 60, r.cfg.Seed)
	type ccRow struct {
		name   string
		policy recovery.Policy
		bytes  func() int64
	}
	fullCkpt := recovery.NewCheckpoint(1, checkpoint.NewMemoryStore())
	incrCkpt := recovery.NewAsyncCheckpoint(1, checkpoint.NewMemoryStore(), r.cfg.Parallelism)
	incrCkpt.Incremental = true
	deltaCkpt := recovery.NewDeltaCheckpoint(1, checkpoint.NewMemoryStore())
	ccRows := []ccRow{
		{"optimistic (this paper)", recovery.Optimistic{}, func() int64 { return 0 }},
		{"full checkpoint k=1", fullCkpt, func() int64 { return fullCkpt.Overhead().BytesWritten }},
		{"per-partition async epochs k=1", incrCkpt, func() int64 { return incrCkpt.Overhead().BytesWritten }},
		{"per-key delta log k=1", deltaCkpt, func() int64 { return deltaCkpt.Overhead().BytesWritten }},
	}
	fmt.Fprintf(&b, "\ncheckpoint granularity ablation: Connected Components on a %d-vertex lollipop graph\n", lolli.NumVertices())
	fmt.Fprintf(&b, "%-32s  %12s  %14s\n", "policy", "total time", "bytes written")
	for _, rw := range ccRows {
		res, err := cc.Run(lolli, cc.Options{Parallelism: r.cfg.Parallelism, Policy: rw.policy})
		if err != nil {
			return nil, fmt.Errorf("experiments: cc overhead %q: %v", rw.name, err)
		}
		fmt.Fprintf(&b, "%-32s  %12v  %14d\n", rw.name, res.Elapsed.Round(time.Microsecond), rw.bytes())
	}

	fmt.Fprintf(&b, "\ngzip snapshots: %d raw bytes stored as %d (%.1fx compression, paid in checkpoint CPU time)\n",
		checkpoint.RawBytes(gzStore), gzStore.BytesWritten(),
		float64(checkpoint.RawBytes(gzStore))/float64(max(1, int(gzStore.BytesWritten()))))

	optimistic, none := rows[1], rows[0]
	ck1m, ck2m, ck5m := rows[4], rows[3], rows[2]
	ck1d := rows[5]
	ck1gz := rows[6]

	checks := []Check{
		check("optimistic recovery writes zero checkpoint bytes (no failure-free overhead)",
			optimistic.overhead.BytesWritten == 0 && optimistic.overhead.Checkpoints == 0,
			"bytes=%d", optimistic.overhead.BytesWritten),
		check("checkpointing pays a real failure-free cost (bytes written > 0)",
			ck1m.overhead.BytesWritten > 0, "k=1 wrote %d bytes", ck1m.overhead.BytesWritten),
		check("checkpoint volume grows as the interval shrinks (k=5 < k=2 < k=1)",
			ck5m.overhead.BytesWritten < ck2m.overhead.BytesWritten &&
				ck2m.overhead.BytesWritten < ck1m.overhead.BytesWritten,
			"%d < %d < %d", ck5m.overhead.BytesWritten, ck2m.overhead.BytesWritten, ck1m.overhead.BytesWritten),
		check("optimistic failure-free runtime beats per-iteration disk checkpointing",
			optimistic.elapsed < ck1d.elapsed, "%v vs %v", optimistic.elapsed, ck1d.elapsed),
		check("optimistic failure-free runtime is in the same band as no fault tolerance",
			optimistic.elapsed < none.elapsed*3, "%v vs %v", optimistic.elapsed, none.elapsed),
		check("per-key delta logs write far less than full checkpoints on the delta iteration",
			deltaCkpt.Overhead().BytesWritten < fullCkpt.Overhead().BytesWritten/3,
			"%d vs %d bytes", deltaCkpt.Overhead().BytesWritten, fullCkpt.Overhead().BytesWritten),
		check("per-partition incremental snapshots do NOT pay off under hash partitioning (documented negative result)",
			incrCkpt.Overhead().BytesWritten > fullCkpt.Overhead().BytesWritten/2,
			"%d vs %d bytes", incrCkpt.Overhead().BytesWritten, fullCkpt.Overhead().BytesWritten),
		// Rank vectors are high-entropy float64s, so the ratio is modest
		// (~2.6x); label-like integer state compresses far better.
		check("gzip snapshots shrink the stored checkpoint volume at equal correctness",
			ck1gz.overhead.BytesWritten < ck1m.overhead.BytesWritten*7/10,
			"%d vs %d bytes", ck1gz.overhead.BytesWritten, ck1m.overhead.BytesWritten),
	}
	return &Report{
		ID: "E6", Figure: "§1/§2.2 failure-free optimality claim",
		Title:  "Failure-free overhead per recovery policy",
		Text:   b.String(),
		Checks: checks,
	}, nil
}
