package exec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"optiflow/internal/graph"
	"optiflow/internal/graph/gen"
)

// hostedExpandBytes runs three LocalFold Expand/Commit/Fold rounds of a
// ColHosted hosting all four partitions of g and returns every
// committed (src, dst) pair's rows, encoded as the column bytes they
// would cross the exchange as (heldColumns), each prefixed by src, dst
// and its length. Apply appends the folded rows to the next round's
// source in the order it sees them — under FoldSum only the nonzero
// sums, the rows a sparse fold would have applied — so the bytes depend
// on both the local fold's emission order and the fold's Apply order
// (float sums are order-sensitive). A row with value v sends
// send(src, v).
func hostedExpandBytes[V ColValue](t *testing.T, g *graph.Graph, expand ExpandKind, fold FoldKind, init func(idx int32) V, send func(src int32, v V) V) []byte {
	t.Helper()
	const nparts = 4
	d := g.Dense()
	pt := d.Partitioning(nparts)
	type rows struct {
		idx []int32
		val []V
	}
	cur, next := make([]rows, nparts), make([]rows, nparts)
	for p, owned := range pt.Owned {
		for _, i := range owned {
			cur[p].idx = append(cur[p].idx, i)
			cur[p].val = append(cur[p].val, init(i))
		}
	}
	step := &ColStep[V]{
		Adj: d, Parts: pt, Expand: expand, Fold: fold, LocalFold: true,
		Source: func(part int) (KeyCol, ValCol[V]) {
			sent := make(ValCol[V], len(cur[part].idx))
			for i, src := range cur[part].idx {
				sent[i] = send(src, cur[part].val[i])
			}
			return cur[part].idx, sent
		},
		Apply: func(part int, dst KeyCol, val ValCol[V]) error {
			for i, d := range dst {
				// A sum fold hands Apply every owned vertex; the ones no
				// message reached sum to zero and send nothing on.
				if fold == FoldSum && val[i] == 0 {
					continue
				}
				next[part].idx = append(next[part].idx, d)
				next[part].val = append(next[part].val, val[i])
			}
			return nil
		},
	}
	parts := []int{0, 1, 2, 3}
	h := NewColHosted(&ColEngine[V]{Parallelism: nparts}, step, parts)
	var all []byte
	for round := 0; round < 3; round++ {
		h.Begin(func() {})
		if err := h.Expand(&HostedOut{}); err != nil {
			t.Fatal(err)
		}
		h.Commit()
		for src := range h.held {
			for dst := range h.held[src] {
				cols := heldColumns(h, src, dst)
				all = binary.LittleEndian.AppendUint32(all, uint32(src))
				all = binary.LittleEndian.AppendUint32(all, uint32(dst))
				all = binary.LittleEndian.AppendUint32(all, uint32(len(cols)))
				all = append(all, cols...)
			}
		}
		for p := range next {
			next[p] = rows{}
		}
		if err := h.Fold(nil); err != nil {
			t.Fatal(err)
		}
		cur, next = next, cur
	}
	return all
}

// heldColumns encodes the committed typed rows h holds from src for the
// hosted partition dst as the bytes they would cross the exchange as:
// the AppendColumns views of their batches, cut where the expansion
// flushed them, every batch full but the last.
func heldColumns[V ColValue](h *ColHosted[V], src, dst int) []byte {
	rows := h.held[src][dst].rows
	batch := h.engine.BatchSize
	if batch <= 0 {
		batch = DefaultColBatchSize
	}
	var cols []byte
	for lo := 0; lo < rows.Len(); lo += batch {
		hi := min(lo+batch, rows.Len())
		cols = (&ColBatch[V]{Dst: rows.Dst[lo:hi], Val: rows.Val[lo:hi]}).AppendColumns(cols)
	}
	return cols
}

// checkColGolden compares got against testdata/<name>.hex, rewriting
// it when OPTIFLOW_UPDATE_GOLDEN=1.
func checkColGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s: %v", path, err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: hosted Expand bytes drifted (%d bytes, want %d)", name, len(got), len(want))
	}
}

// TestColHostedExpandBytesGolden pins the per-(src, dst) Expand columns
// of a LocalFold hosted run, byte for byte, on a PageRank-shaped step
// (float sums over a Twitter graph, a row sending its value times one
// over its out-degree) and a CC-shaped one (min labels over a grid).
// Regenerate with OPTIFLOW_UPDATE_GOLDEN=1 only after a deliberate
// change to the exchange's row order.
func TestColHostedExpandBytesGolden(t *testing.T) {
	tw := gen.Twitter(300, 7)
	d := tw.Dense()
	checkColGolden(t, "hosted_twitter_pr", hostedExpandBytes(t, tw, ExpandMulWeight, FoldSum,
		func(int32) float64 { return 1 / 300.0 },
		func(src int32, v float64) float64 { return v * (1 / float64(d.Degree(src))) }))
	checkColGolden(t, "hosted_grid_cc", hostedExpandBytes(t, gen.Grid(8, 8), ExpandCopy, FoldMin,
		func(i int32) uint64 { return uint64(i*37%64 + 1) },
		func(_ int32, v uint64) uint64 { return v }))
}

// TestLocalSumScratchResetLeavesZero runs FoldSum LocalFold supersteps
// on a Twitter graph — clean, and faulted after none, half and all but
// one of their messages — and checks that each leaves the local-fold
// scratch all +0 and unmarked, and that the retry after a fault applies
// what a never-faulted twin engine does, bit for bit. An engine whose
// previous local step was a FoldMin one, which starts each destination
// at its first message, must still sum from zero.
func TestLocalSumScratchResetLeavesZero(t *testing.T) {
	d := gen.Twitter(300, 7).Dense()
	pt := d.Partitioning(4)
	// Each partition's vertices send PageRank-like contributions, a value
	// times one over the out-degree.
	vals := make([][]float64, len(pt.Owned))
	for p, owned := range pt.Owned {
		for _, src := range owned {
			vals[p] = append(vals[p], (float64(src%7)+0.1)*(1/float64(d.Degree(src))))
		}
	}
	applied := map[int32]uint64{}
	step := &ColStep[float64]{
		Adj: d, Parts: pt, Expand: ExpandMulWeight, Fold: FoldSum, LocalFold: true,
		Source: colSource(pt.Owned, vals),
		Apply: func(_ int, dst KeyCol, val ValCol[float64]) error {
			for i, d := range dst {
				applied[d] = math.Float64bits(val[i])
			}
			return nil
		},
	}
	run := func(e *ColEngine[float64], fi *FaultInjection) (map[int32]uint64, ColStats, error) {
		clear(applied)
		stats, err := e.Run(step, fi)
		return maps.Clone(applied), stats, err
	}
	checkClean := func(what string, e *ColEngine[float64]) {
		t.Helper()
		if i := slices.IndexFunc(e.lacc, func(v float64) bool { return math.Float64bits(v) != 0 }); i >= 0 {
			t.Fatalf("%s: local-fold scratch holds %v at %d", what, e.lacc[i], i)
		}
		if i := slices.Index(e.lseen, 1); i >= 0 {
			t.Fatalf("%s: local-fold scratch still marks %d", what, i)
		}
	}
	want, stats, err := run(&ColEngine[float64]{Parallelism: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != d.NumVertices() || stats.Messages < 2 {
		t.Fatalf("the twin applied %d of %d vertices after %d messages", len(want), d.NumVertices(), stats.Messages)
	}
	e := &ColEngine[float64]{Parallelism: 4}
	if _, _, err := run(e, nil); err != nil {
		t.Fatal(err)
	}
	checkClean("clean run", e)
	for _, after := range []int64{0, stats.Messages / 2, stats.Messages - 1} {
		what := fmt.Sprintf("fault after %d of %d messages", after, stats.Messages)
		_, _, err := run(e, &FaultInjection{Workers: []int{0}, Partitions: []int{0}, AfterRecords: after})
		var wf *WorkerFailure
		if !errors.As(err, &wf) {
			t.Fatalf("%s: err = %v, want a WorkerFailure", what, err)
		}
		checkClean(what, e)
		got, _, err := run(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: the retry applied other sums than a never-faulted twin", what)
		}
		checkClean(what+", retried", e)
	}
	step.Fold = FoldMin
	if _, _, err := run(e, nil); err != nil {
		t.Fatal(err)
	}
	checkClean("FoldMin step", e)
	step.Fold = FoldSum
	if got, _, err := run(e, nil); err != nil || !maps.Equal(got, want) {
		t.Fatalf("a FoldSum step after a FoldMin one applied other sums than the twin (err %v)", err)
	}
}
