package exec

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"optiflow/internal/colbytes"
	"optiflow/internal/graph"
)

// hostedFixture hosts partition 0 of a two-partition path graph and
// records what Apply sees. It also returns one vertex of each partition.
func hostedFixture(t testing.TB) (h *ColHosted[uint64], applied map[int32]uint64, mine, theirs int32) {
	t.Helper()
	b := graph.NewBuilder(false)
	for v := graph.VertexID(0); v < 7; v++ {
		b.AddEdge(v, v+1)
	}
	d := b.Build().Dense()
	pt := d.Partitioning(2)
	if len(pt.Owned[0]) == 0 || len(pt.Owned[1]) == 0 {
		t.Fatal("fixture graph does not span both partitions")
	}
	applied = map[int32]uint64{}
	step := &ColStep[uint64]{
		Adj: d, Parts: pt, Expand: ExpandCopy, Fold: FoldMin,
		Source: func(int) (KeyCol, ValCol[uint64]) { return nil, nil },
		Apply: func(_ int, dst KeyCol, val ValCol[uint64]) error {
			for i, d := range dst {
				applied[d] = val[i]
			}
			return nil
		},
	}
	return NewColHosted(&ColEngine[uint64]{Parallelism: 2}, step, []int{0}), applied, pt.Owned[0][0], pt.Owned[1][0]
}

// TestColHostedFoldsRemoteColumns folds two batches of remote columns
// and checks Apply saw their minimum per vertex.
func TestColHostedFoldsRemoteColumns(t *testing.T) {
	h, applied, mine, _ := hostedFixture(t)
	first := ColBatch[uint64]{Dst: KeyCol{mine}, Val: ValCol[uint64]{9}}
	second := ColBatch[uint64]{Dst: KeyCol{mine}, Val: ValCol[uint64]{4}}
	cols := second.AppendColumns(first.AppendColumns(nil))
	if err := h.Fold([]HostedCols{{Src: 1, Dst: 0, Cols: cols}}); err != nil {
		t.Fatal(err)
	}
	if want := map[int32]uint64{mine: 4}; !reflect.DeepEqual(applied, want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
}

// hostileColumns is the hostile-column table of hostedFixture's host:
// column sets, built around the well-formed good, that a hostile peer
// might send and Fold must reject — truncated, also after a batch that
// folds, with a row for a vertex partition 0 does not own or outside the
// graph, and misrouted.
func hostileColumns(good []byte, theirs int32) map[string]HostedCols {
	cases := map[string]HostedCols{
		"truncated":                 {Src: 1, Dst: 0, Cols: good[:len(good)-1]},
		"truncated after a batch":   {Src: 1, Dst: 0, Cols: append(bytes.Clone(good), good[:len(good)-1]...)},
		"from a hosted source":      {Src: 0, Dst: 0, Cols: good},
		"to a partition not hosted": {Src: 0, Dst: 1, Cols: good},
		"source out of range":       {Src: 2, Dst: 0, Cols: good},
		"negative destination":      {Src: 1, Dst: -1, Cols: good},
	}
	for what, dst := range map[string]int32{"foreign vertex": theirs, "negative index": -1, "index past the graph": 1 << 20} {
		b := ColBatch[uint64]{Dst: KeyCol{dst}, Val: ValCol[uint64]{1}}
		cases[what] = HostedCols{Src: 1, Dst: 0, Cols: b.AppendColumns(nil)}
	}
	return cases
}

// TestColHostedRejectsHostileColumns feeds Fold columns as a hostile
// peer might send them: truncated at every offset, every byte inverted
// in turn, and the rest of the hostile-column table. Each must fail
// with ErrBadColumns — or, for an inversion that happens to stay
// well-formed, fold — without a panic.
func TestColHostedRejectsHostileColumns(t *testing.T) {
	h, _, mine, theirs := hostedFixture(t)
	batch := ColBatch[uint64]{Dst: KeyCol{mine, mine}, Val: ValCol[uint64]{7, 3}}
	good := batch.AppendColumns(nil)
	fold := func(what string, in []HostedCols, mustFail bool) {
		t.Helper()
		err := func() (err error) {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: Fold panicked: %v", what, rec)
				}
			}()
			return h.Fold(in)
		}()
		if err != nil && !errors.Is(err, ErrBadColumns) {
			t.Errorf("%s: err = %v, want ErrBadColumns", what, err)
		}
		if mustFail && err == nil {
			t.Errorf("%s: folded without error", what)
		}
	}
	for n := 1; n < len(good); n++ {
		err := h.Fold([]HostedCols{{Src: 1, Dst: 0, Cols: good[:n]}})
		if !errors.Is(err, colbytes.ErrTruncated) || !errors.Is(err, ErrBadColumns) {
			t.Errorf("columns truncated to %d bytes: err = %v, want ErrTruncated and ErrBadColumns", n, err)
		}
	}
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0xff
		fold(fmt.Sprintf("byte %d inverted", i), []HostedCols{{Src: 1, Dst: 0, Cols: bad}}, false)
	}
	for what, rc := range hostileColumns(good, theirs) {
		fold(what, []HostedCols{rc}, true)
	}
	// A second column set for a pair is rejected: rows appended after a
	// compensation (Reexpand) travel concatenated onto the pair's one set —
	// TestColHostedReexpandAppends — which is the column format anyway.
	fold("the same pair twice", []HostedCols{{Src: 1, Dst: 0, Cols: good}, {Src: 1, Dst: 0, Cols: good}}, true)
	if err := h.Fold([]HostedCols{{Src: 1, Dst: 0, Cols: append(bytes.Clone(good), good...)}}); err != nil {
		t.Errorf("one pair's sets concatenated: %v", err)
	}
}

// FuzzColHostedFold feeds the fixture's host one remote column set,
// seeded from the hostile-column table and a well-formed set. The host
// holds columns of its own, committed before. Fold must not panic; if
// it fails, it fails with ErrBadColumns, before Apply saw anything; and
// either way the committed columns are what they were, and a Fold of
// them alone afterwards applies what it does on a host that never saw
// the input.
func FuzzColHostedFold(f *testing.F) {
	_, _, mine, theirs := hostedFixture(f)
	good := (&ColBatch[uint64]{Dst: KeyCol{mine, mine}, Val: ValCol[uint64]{7, 3}}).AppendColumns(nil)
	f.Add(1, 0, good)
	for _, rc := range hostileColumns(good, theirs) {
		f.Add(rc.Src, rc.Dst, rc.Cols)
	}
	f.Fuzz(func(t *testing.T, src, dst int, cols []byte) {
		host := func() (*ColHosted[uint64], map[int32]uint64) {
			h, applied, mine, _ := hostedFixture(t)
			h.step.Source = func(part int) (KeyCol, ValCol[uint64]) {
				if part == 0 {
					return KeyCol{mine}, ValCol[uint64]{5}
				}
				return nil, nil
			}
			h.Begin(func() {})
			if err := h.Expand(&HostedOut{}); err != nil {
				t.Fatal(err)
			}
			h.Commit()
			return h, applied
		}
		h, applied := host()
		held := bytes.Clone(h.held[0][0])
		err := h.Fold([]HostedCols{{Src: src, Dst: dst, Cols: cols}})
		if err != nil {
			if !errors.Is(err, ErrBadColumns) {
				t.Fatalf("err = %v, want ErrBadColumns", err)
			}
			if len(applied) != 0 {
				t.Fatalf("a rejected Fold applied %v", applied)
			}
		}
		for _, row := range h.remote {
			for dst, cols := range row {
				if cols != nil {
					t.Fatalf("Fold kept columns bound for partition %d", dst)
				}
			}
		}
		if !bytes.Equal(h.held[0][0], held) {
			t.Fatal("Fold changed the committed columns")
		}
		twin, want := host()
		clear(applied)
		if err := h.Fold(nil); err != nil {
			t.Fatal(err)
		}
		if err := twin.Fold(nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(applied, want) {
			t.Fatalf("the committed columns then applied %v, on a twin %v", applied, want)
		}
	})
}

// TestColHostedReexpandAppends drives the compensation path: Reexpand
// outside any attempt appends to the committed columns of hosted
// destinations, so the next Fold sees the old rows and the new ones,
// reports only the new rows of remote destinations, and leaves an
// aborted attempt's columns out of it. Unheld tells a partition whose
// columns are still held from one freshly loaded.
func TestColHostedReexpandAppends(t *testing.T) {
	h, applied, _, _ := hostedFixture(t)
	d := h.step.Adj
	pt := h.step.Parts
	// active lists what Source returns: (vertex index, label) rows of
	// partition 0.
	var active [][2]int32
	h.step.Source = func(part int) (idx KeyCol, val ValCol[uint64]) {
		for _, row := range active {
			if part == 0 {
				idx, val = append(idx, row[0]), append(val, uint64(row[1]))
			}
		}
		return idx, val
	}
	// Two vertices of partition 0, one with an out-edge staying in it and
	// one with an out-edge leaving it.
	var local, remote int32 = -1, -1
	for _, v := range pt.Owned[0] {
		for j := d.Offsets[v]; j < d.Offsets[v+1]; j++ {
			if pt.PartOf[d.Targets[j]] == 0 && local < 0 {
				local = v
			} else if pt.PartOf[d.Targets[j]] == 1 && remote < 0 {
				remote = v
			}
		}
	}
	if local < 0 || remote < 0 {
		t.Fatal("fixture graph has no local or no remote edge out of partition 0")
	}
	if err := h.Unheld([]int{0}); err != nil {
		t.Fatalf("nothing expanded yet: %v", err)
	}

	active = [][2]int32{{local, 50}, {remote, 50}}
	var first HostedOut
	h.Begin(func() {})
	if err := h.Expand(&first); err != nil {
		t.Fatal(err)
	}
	h.Commit()
	if err := h.Unheld([]int{0}); err == nil {
		t.Error("Unheld passed a partition whose committed columns are held")
	}
	shipped := bytes.Clone(first.Remote[0].Cols)

	// An attempt in flight, then aborted: its columns must not be appended to.
	active = [][2]int32{{local, 1}}
	h.Begin(func() {})
	if err := h.Expand(&HostedOut{}); err != nil {
		t.Fatal(err)
	}
	h.Abort()

	active = [][2]int32{{local, 7}, {remote, 7}}
	var again HostedOut
	if err := h.Reexpand([]int{0}, &again); err != nil {
		t.Fatal(err)
	}
	if again.Messages != first.Messages {
		t.Errorf("Reexpand sent %d messages, the same rows' Expand %d", again.Messages, first.Messages)
	}
	if len(again.Remote) != 1 || len(again.Remote[0].Cols) != len(shipped) {
		t.Fatalf("Reexpand reported %d remote sets (first of %d bytes), want 1 of the %d bytes one expansion ships",
			len(again.Remote), len(again.Remote[0].Cols), len(shipped))
	}
	if err := h.Fold(nil); err != nil {
		t.Fatal(err)
	}
	// FoldMin over the held rows: 50 from the committed step, 7 appended; the
	// aborted attempt's 1 never shows.
	for v, got := range applied {
		if got != 7 {
			t.Errorf("vertex %d folded to %d, want 7: the min of the committed row and the appended one", v, got)
		}
	}
	if len(applied) == 0 {
		t.Error("Fold applied nothing: the held columns are gone")
	}
}
