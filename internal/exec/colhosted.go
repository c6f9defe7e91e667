// Hosted columnar supersteps: the same ColStep, run by a process that
// hosts only some of its partitions. The engine's halves execute
// separately, inline on the caller's goroutine, and the exchange between
// them is bytes: every partition's expansion is folded locally, as
// under LocalFold, and each flushed batch of its rows is written as
// ColBatch columns (AppendColumns) into a per-(source, destination)
// buffer. Buffers bound for hosted partitions stay here until the next
// fold, the others leave the process and the peers' arrive, so a hosted
// step folds what the previous one expanded, applies, then expands the
// new state.
// Source, Apply, the expand kernels and the fold scratch are the
// in-process code path.
package exec

import (
	"errors"
	"fmt"

	"optiflow/internal/colbytes"
)

// HostedCols is the exchange between one producing and one consuming
// partition in byte form: the AppendColumns views of the batches Src
// flushed to Dst, concatenated in production order.
type HostedCols struct {
	Src, Dst int
	Cols     []byte
}

// HostedOut is what one hosted step reports to the driver combining
// the hosts: the columns bound for partitions hosted elsewhere, the
// step counters, and this host's partial sums of the job's global
// scalars (PageRank's dangling mass and L1 delta; Folded is false for
// a priming step, which folds nothing, so it cannot fake convergence).
type HostedOut struct {
	Remote   []HostedCols
	Messages int64
	Updates  int64
	Dangling float64
	L1       float64
	Folded   bool
}

// ErrBadColumns marks every exchange column set Fold rejects: one
// misrouted, truncated or malformed, or holding a row for a vertex the
// destination partition does not own.
var ErrBadColumns = errors.New("col: bad exchange columns")

// ColHosted runs a ColStep's halves for the partitions one process
// hosts and keeps the byte-form exchange between them. One goroutine
// drives it, an attempt at a time: Begin, Fold (unless priming), Expand,
// then Commit or Abort. An uncommitted attempt leaves the held columns
// of the last committed one in place, so it can be replayed; between
// attempts Reexpand adds to them.
type ColHosted[V ColValue] struct {
	engine *ColEngine[V]
	step   *ColStep[V]
	parts  []int
	hosted []bool

	// held[src][dst] are the columns the last committed Expand produced,
	// out[src][dst] those of the attempt in flight; Commit swaps them,
	// so the steady state allocates nothing.
	held, out [][][]byte
	// remote[src][dst] are the peers' columns of the current Fold,
	// borrowed from the caller for its duration and cleared before it
	// returns.
	remote [][][]byte
	// sent backs HostedOut.Remote, refilled by every expansion.
	sent []HostedCols
	// revert undoes the state writes of the attempt in flight; nil when
	// none is.
	revert func()
}

// NewColHosted prepares the halves of step for the listed partitions.
func NewColHosted[V ColValue](engine *ColEngine[V], step *ColStep[V], parts []int) *ColHosted[V] {
	n := step.Parts.N
	h := &ColHosted[V]{engine: engine, step: step, parts: parts, hosted: make([]bool, n)}
	for _, p := range parts {
		h.hosted[p] = true
	}
	for _, g := range []*[][][]byte{&h.held, &h.out, &h.remote} {
		*g = make([][][]byte, n)
		for i := range *g {
			(*g)[i] = make([][]byte, n)
		}
	}
	return h
}

// Fold runs the consuming half: every hosted partition folds the
// columns bound for it — held ones from hosted sources, remote ones
// from the peers — in ascending source order, then Apply sees the
// result. Remote columns come off the network: a malformed view or a
// row routed to the wrong partition is an ErrBadColumns error, found
// before the partition it is bound for is applied. They are borrowed
// for the call only — the caller may recycle their bytes once it
// returns.
func (h *ColHosted[V]) Fold(remote []HostedCols) error {
	n := len(h.hosted)
	defer func() {
		for _, row := range h.remote {
			clear(row)
		}
	}()
	for _, rc := range remote {
		if rc.Src < 0 || rc.Src >= n || rc.Dst < 0 || rc.Dst >= n || h.hosted[rc.Src] || !h.hosted[rc.Dst] || h.remote[rc.Src][rc.Dst] != nil {
			return fmt.Errorf("%w: misrouted %d -> %d", ErrBadColumns, rc.Src, rc.Dst)
		}
		h.remote[rc.Src][rc.Dst] = rc.Cols
	}
	// foldHalf folds the hosted partitions one after another, each to
	// its last batch, so one cursor serves them all: the partition being
	// folded, the next source partition whose columns it reads, and the
	// reader over the current one.
	partOf := h.step.Parts.PartOf
	folding, src := -1, 0
	var r colbytes.Reader
	return h.engine.foldHalf(h.step, h.parts, func(part int, b *ColBatch[V]) (bool, error) {
		if part != folding {
			folding, src, r = part, 0, colbytes.Reader{}
		}
		for r.Remaining() == 0 {
			if src == n {
				return false, nil
			}
			cols := h.remote[src][part]
			if h.hosted[src] {
				cols = h.held[src][part]
			}
			src++
			r = *colbytes.NewReader(cols)
		}
		b.ReadColumns(&r)
		if err := r.Err(); err != nil {
			return false, fmt.Errorf("%w from partition %d: %w", ErrBadColumns, src-1, err)
		}
		for _, d := range b.Dst {
			if d < 0 || int(d) >= len(partOf) || int(partOf[d]) != part {
				return false, fmt.Errorf("%w from partition %d: row for vertex index %d, which partition %d does not own", ErrBadColumns, src-1, d, part)
			}
		}
		return true, nil
	})
}

// Expand runs the producing half over the hosted partitions' sources
// and reports, in out, the messages sent and the columns bound for
// partitions hosted elsewhere, which alias the attempt's buffers until
// the Expand after the next Commit; out.Remote itself is reused by the
// next Expand or Reexpand.
func (h *ColHosted[V]) Expand(out *HostedOut) error {
	return h.expand(h.out, h.parts, false, out)
}

// Reexpand runs the producing half over the listed hosted partitions'
// sources outside any attempt and appends the result to the committed
// columns, which the next Fold consumes with the rows already there —
// how a compensation re-sends what a lost partition sent and what its
// neighbours must send again. out reports only the new rows bound for
// partitions hosted elsewhere, for the driver to append to the set it
// relays: one Fold never takes two sets for the same pair.
func (h *ColHosted[V]) Reexpand(parts []int, out *HostedOut) error {
	return h.expand(h.held, parts, true, out)
}

// Unheld fails if one of the listed partitions has committed columns
// bound for a hosted partition: its sources were expanded here, so it
// was not lost and must not be expanded again from other state.
func (h *ColHosted[V]) Unheld(parts []int) error {
	for _, src := range parts {
		for dst, cols := range h.held[src] {
			if h.hosted[dst] && len(cols) > 0 {
				return fmt.Errorf("col: partition %d still holds the columns it sent to partition %d", src, dst)
			}
		}
	}
	return nil
}

// expand expands parts' sources into bufs. Columns that left the process
// are always replaced; those bound for hosted partitions are appended to
// if keepLocal.
func (h *ColHosted[V]) expand(bufs [][][]byte, parts []int, keepLocal bool, out *HostedOut) error {
	for _, src := range parts {
		for dst := range bufs[src] {
			if !(keepLocal && h.hosted[dst]) {
				bufs[src][dst] = bufs[src][dst][:0]
			}
		}
	}
	stats, err := h.engine.expandHalf(h.step, parts, nil, func(src, dst int, b *ColBatch[V]) {
		bufs[src][dst] = b.AppendColumns(bufs[src][dst])
	})
	if err != nil {
		return err
	}
	out.Messages = stats.Messages
	h.sent = h.sent[:0]
	for _, src := range parts {
		for dst, cols := range bufs[src] {
			if !h.hosted[dst] && len(cols) > 0 {
				h.sent = append(h.sent, HostedCols{Src: src, Dst: dst, Cols: cols})
			}
		}
	}
	out.Remote = h.sent
	return nil
}

// Begin opens an attempt (Abort any earlier one first). revert is how
// the job undoes the attempt's state writes should it be aborted —
// typically by going back to a copy-on-write capture taken just now.
func (h *ColHosted[V]) Begin(revert func()) { h.revert = revert }

// Commit makes the attempt in flight the committed state: its Expand's
// columns are what the next Fold consumes. A no-op without an attempt.
func (h *ColHosted[V]) Commit() {
	if h.revert == nil {
		return
	}
	h.revert = nil
	h.held, h.out = h.out, h.held
}

// Abort returns to the state before the attempt in flight. A no-op
// without one.
func (h *ColHosted[V]) Abort() {
	if h.revert != nil {
		h.revert()
		h.revert = nil
	}
}
