// Hosted columnar supersteps: the same ColStep, run by a process that
// hosts only some of its partitions. The engine's halves execute
// separately, inline on the caller's goroutine. Every partition's
// expansion is folded locally, as under LocalFold, and its flushed
// batches are kept per (source, destination) pair in one of two forms.
// Rows bound for a partition hosted here stay typed — the pair's int32
// and V columns, appended batch after batch — and the next fold adds
// them straight into the fold scratch: the engine routed them itself,
// so they are neither encoded nor checked. Rows bound for a partition
// hosted elsewhere are written as ColBatch columns (AppendColumns) into
// the pair's byte buffer, which leaves the process; the peers' buffers
// arrive the same way and are decoded and checked row by row before
// they fold. So a hosted step folds what the previous one expanded,
// applies, then expands the new state.
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
// hosts and keeps the exchange between them. One goroutine drives it,
// an attempt at a time: Begin, Fold (unless priming), Expand, then
// Commit or Abort. An uncommitted attempt leaves the held rows of the
// last committed one in place, so it can be replayed; between attempts
// Reexpand adds to them.
type ColHosted[V ColValue] struct {
	engine *ColEngine[V]
	step   *ColStep[V]
	parts  []int
	hosted []bool

	// held[src][dst] is what the last committed Expand sent from src to
	// dst, out[src][dst] what the attempt in flight sends; Commit swaps
	// them, so the steady state allocates nothing. A pair bound for a
	// hosted partition keeps its rows typed, one bound elsewhere the
	// column bytes that leave the process.
	held, out [][]hostedPair[V]
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

// hostedPair is one (source, destination) pair's share of an
// expansion: rows, in production order, if the destination is hosted
// here, else cols, their AppendColumns views batch after batch.
type hostedPair[V ColValue] struct {
	rows ColBatch[V]
	cols []byte
}

// NewColHosted prepares the halves of step for the listed partitions.
func NewColHosted[V ColValue](engine *ColEngine[V], step *ColStep[V], parts []int) *ColHosted[V] {
	n := step.Parts.N
	h := &ColHosted[V]{engine: engine, step: step, parts: parts, hosted: make([]bool, n),
		held: make([][]hostedPair[V], n), out: make([][]hostedPair[V], n), remote: make([][][]byte, n)}
	for _, p := range parts {
		h.hosted[p] = true
	}
	for src := range n {
		h.held[src], h.out[src], h.remote[src] = make([]hostedPair[V], n), make([]hostedPair[V], n), make([][]byte, n)
	}
	return h
}

// Fold runs the consuming half: every hosted partition folds the rows
// bound for it — held ones from hosted sources, remote columns from the
// peers — in ascending source order, then Apply sees the result. Remote
// columns come off the network: a malformed view or a row routed to the
// wrong partition is an ErrBadColumns error, found before the partition
// it is bound for is applied. They are borrowed for the call only — the
// caller may recycle their bytes once it returns.
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
	return h.engine.foldHalf(h.step, h.parts, func(part int, r *colRun[V]) error {
		for src := range n {
			if h.hosted[src] {
				rows := &h.held[src][part].rows
				r.fold(rows.Dst, rows.Val)
			} else if err := r.foldColumns(part, h.remote[src][part]); err != nil {
				return fmt.Errorf("%w from partition %d: %w", ErrBadColumns, src, err)
			}
		}
		return nil
	})
}

// foldColumns folds a peer's column set bound for partition part, a
// batch at a time: it decodes the batch, checks that part owns every
// row's vertex, then folds it. A malformed batch or a foreign row stops
// it with an error; the batches before it are folded already.
func (r *colRun[V]) foldColumns(part int, cols []byte) error {
	partOf, rd := r.step.Parts.PartOf, &r.cols
	*rd = *colbytes.NewReader(cols)
	bp := r.e.pool.get(r.batch)
	defer r.e.pool.put(bp)
	for rd.Remaining() > 0 {
		if bp.ReadColumns(rd); rd.Err() != nil {
			return rd.Err()
		}
		for _, d := range bp.Dst {
			if d < 0 || int(d) >= len(partOf) || int(partOf[d]) != part {
				return fmt.Errorf("row for vertex index %d, which partition %d does not own", d, part)
			}
		}
		r.fold(bp.Dst, bp.Val)
	}
	return nil
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
// rows, which the next Fold consumes with the rows already there —
// how a compensation re-sends what a lost partition sent and what its
// neighbours must send again. out reports only the new rows bound for
// partitions hosted elsewhere, for the driver to append to the set it
// relays: one Fold never takes two sets for the same pair.
func (h *ColHosted[V]) Reexpand(parts []int, out *HostedOut) error {
	return h.expand(h.held, parts, true, out)
}

// Unheld fails if one of the listed partitions has committed rows bound
// for a hosted partition: its sources were expanded here, so it was not
// lost and must not be expanded again from other state.
func (h *ColHosted[V]) Unheld(parts []int) error {
	for _, src := range parts {
		for dst, pair := range h.held[src] {
			if pair.rows.Len() > 0 {
				return fmt.Errorf("col: partition %d still holds the rows it sent to partition %d", src, dst)
			}
		}
	}
	return nil
}

// HeldRows counts the committed rows bound for hosted partitions: what
// the last committed Expand, and any Reexpand since, kept in the
// process.
func (h *ColHosted[V]) HeldRows() int {
	n := 0
	for _, row := range h.held {
		for _, pair := range row {
			n += pair.rows.Len()
		}
	}
	return n
}

// expand expands parts' sources into bufs. Columns that leave the
// process are always replaced; rows bound for hosted partitions are
// appended to if keepLocal.
func (h *ColHosted[V]) expand(bufs [][]hostedPair[V], parts []int, keepLocal bool, out *HostedOut) error {
	for _, src := range parts {
		for dst := range bufs[src] {
			pair := &bufs[src][dst]
			pair.cols = pair.cols[:0]
			if !keepLocal {
				pair.rows.Dst, pair.rows.Val = pair.rows.Dst[:0], pair.rows.Val[:0]
			}
		}
	}
	stats, err := h.engine.expandHalf(h.step, parts, nil, func(src, dst int, b *ColBatch[V]) {
		pair := &bufs[src][dst]
		if h.hosted[dst] {
			pair.rows.Dst, pair.rows.Val = append(pair.rows.Dst, b.Dst...), append(pair.rows.Val, b.Val...)
		} else {
			pair.cols = b.AppendColumns(pair.cols)
		}
	})
	if err != nil {
		return err
	}
	out.Messages = stats.Messages
	h.sent = h.sent[:0]
	for _, src := range parts {
		for dst, pair := range bufs[src] {
			if len(pair.cols) > 0 {
				h.sent = append(h.sent, HostedCols{Src: src, Dst: dst, Cols: pair.cols})
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
// rows are what the next Fold consumes. A no-op without an attempt.
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
