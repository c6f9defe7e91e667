// Columnar PageRank: the bulk iteration of pagerank.go on the typed
// columnar engine. Ranks live in a dense column store, rank
// contributions travel as float64 columns expanded with a precomputed
// per-edge scale column (weight / total outgoing weight, the
// find-neighbors join collapsed into one multiply), and contribution
// sums fold into dense per-partition scratch. The driver fold — dangling
// share, teleport base, L1 delta — applies the same float operations in
// the same order as the boxed path.
package pagerank

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"optiflow/internal/checkpoint"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
	"optiflow/internal/state"
)

// colPR holds the columnar internals of a PR job, driven through the
// owning PR's methods.
type colPR struct {
	d  *graph.Dense
	pt *graph.Partitioning
	// parts lists the partitions this process computes: all in-process,
	// the hosted subset in a worker (see Hosted).
	parts []int

	engine *exec.ColEngine[float64]
	step   *exec.ColStep[float64] // built once, reused every superstep

	ranks *state.DenseStore[float64]

	// Per-superstep scratch, per partition, indexed by local slot: the
	// damped contribution sums and which slots received any.
	sums   [][]float64
	sumSet [][]bool

	danglingIdx []int32 // this process's vertices with no out-edges, ascending
}

// newColPR builds the columnar job over the listed partitions of g (nil
// means all of them).
func newColPR(g *graph.Graph, parallelism int, parts []int) *colPR {
	d := g.Dense()
	pt := d.Partitioning(parallelism)
	if parts == nil {
		for p := 0; p < parallelism; p++ {
			parts = append(parts, p)
		}
	}
	mine := make([]bool, parallelism)
	for _, p := range parts {
		mine[p] = true
	}
	c := &colPR{
		d:      d,
		pt:     pt,
		parts:  parts,
		engine: &exec.ColEngine[float64]{Parallelism: parallelism},
		ranks:  state.NewDenseStore[float64]("ranks", d, pt),
		sums:   make([][]float64, parallelism),
		sumSet: make([][]bool, parallelism),
	}
	for p := range c.sums {
		n := len(pt.Owned[p])
		c.sums[p] = make([]float64, n)
		c.sumSet[p] = make([]bool, n)
	}
	nv := d.NumVertices()
	offsets, weights := d.Offsets, d.Weights
	// The per-edge scale column: contribution fraction per out-edge.
	// Unweighted edges split rank uniformly over the out-degree.
	scale := make([]float64, len(d.Targets))
	for i := 0; i < nv; i++ {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			if mine[pt.PartOf[i]] {
				c.danglingIdx = append(c.danglingIdx, int32(i))
			}
			continue
		}
		if weights == nil {
			s := 1 / float64(hi-lo)
			for j := lo; j < hi; j++ {
				scale[j] = s
			}
			continue
		}
		total := 0.0
		for j := lo; j < hi; j++ {
			total += weights[j]
		}
		if total <= 0 {
			// Degenerate weights: no mass flows (the boxed join emits
			// nothing); zero scales produce the same ranks.
			continue
		}
		for j := lo; j < hi; j++ {
			scale[j] = weights[j] / total
		}
	}
	c.step = &exec.ColStep[float64]{
		Adj:    d,
		Parts:  pt,
		Expand: exec.ExpandMulScale,
		Scale:  scale,
		Fold:   exec.FoldSum,
		Source: c.source,
		Apply:  c.apply,
	}
	return c
}

func (c *colPR) seedInitial() { c.seed(c.parts) }

// seed puts the listed partitions into superstep-zero state.
func (c *colPR) seed(parts []int) {
	n := float64(c.d.NumVertices())
	for _, p := range parts {
		for slot := range c.pt.Owned[p] {
			c.ranks.SetSlot(p, int32(slot), 1/n)
		}
	}
}

// source streams partition part's rank column into the expansion.
func (c *colPR) source(part int, emit func(src int32, val float64) bool) error {
	owned := c.pt.Owned[part]
	for slot, idx := range owned {
		r, ok := c.ranks.GetSlot(part, int32(slot))
		if !ok {
			continue
		}
		if !emit(idx, r) {
			return nil
		}
	}
	return nil
}

// apply scatters the folded contribution sums into the partition's
// scratch columns; the driver fold below turns them into ranks.
func (c *colPR) apply(part int, dst exec.KeyCol, val exec.ValCol[float64]) error {
	slot := c.pt.Slot
	sums, set := c.sums[part], c.sumSet[part]
	for i, d := range dst {
		s := slot[d]
		sums[s] = val[i]
		set[s] = true
	}
	return nil
}

// runStep executes one columnar superstep and the driver fold,
// mirroring PR.Step: dangling mass first, then the exchange, then
// base + d*sum + share per vertex with the L1 delta.
func (c *colPR) runStep(pr *PR, fault *exec.FaultInjection) (messages, shuffled int64, l1, danglingMass float64, err error) {
	danglingMass = c.danglingMass()
	c.clearSums()
	c.step.LocalFold = pr.combine
	stats, runErr := c.engine.Run(c.step, fault)
	if runErr != nil {
		return 0, 0, 0, 0, fmt.Errorf("pagerank: superstep: %w", runErr)
	}
	return stats.Messages, stats.Shuffled, c.foldRanks(pr.d, danglingMass), danglingMass, nil
}

// danglingMass sums the rank of this process's sink vertices: all the
// dangling mass in-process, one host's share of it in a worker.
func (c *colPR) danglingMass() float64 {
	mass := 0.0
	for _, idx := range c.danglingIdx {
		if r, ok := c.ranks.At(idx); ok {
			mass += r
		}
	}
	return mass
}

// clearSums resets the sums scratch (the boxed path's sums.ClearAll):
// an aborted attempt may have written some of it.
func (c *colPR) clearSums() {
	for _, p := range c.parts {
		clear(c.sumSet[p])
	}
}

// foldRanks is the driver fold over this process's partitions: new
// rank = teleport base + damped contribution sum + share of the global
// dangling mass. It returns the L1 delta against the previous ranks.
func (c *colPR) foldRanks(damping, danglingMass float64) (l1 float64) {
	n := float64(c.d.NumVertices())
	base := (1 - damping) / n
	share := damping * danglingMass / n
	for _, p := range c.parts {
		sums, set := c.sums[p], c.sumSet[p]
		for slot := range sums {
			nv := base
			if set[slot] {
				nv = base + damping*sums[slot]
			}
			nv += share
			old, _ := c.ranks.GetSlot(p, int32(slot))
			l1 += math.Abs(nv - old)
			c.ranks.SetSlot(p, int32(slot), nv)
		}
	}
	return l1
}

func (c *colPR) rankVector() map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64, c.d.NumVertices())
	c.ranks.Range(func(k uint64, v float64) bool {
		out[graph.VertexID(k)] = v
		return true
	})
	return out
}

func (c *colPR) snapshotTo(pr *PR, buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(pr.lastL1); err != nil {
		return fmt.Errorf("pagerank: encoding snapshot: %v", err)
	}
	return c.ranks.EncodeTo(enc)
}

func (c *colPR) restoreFrom(pr *PR, data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&pr.lastL1); err != nil {
		return fmt.Errorf("pagerank: decoding snapshot: %v", err)
	}
	return c.ranks.DecodeFrom(dec)
}

func (c *colPR) clearPartitions(parts []int) {
	for _, p := range parts {
		c.ranks.ClearPartition(p)
	}
}

func (c *colPR) partitionVersions() []uint64 {
	out := make([]uint64, c.pt.N)
	for p := range out {
		out[p] = c.ranks.Version(p)
	}
	return out
}

// captureSnapshot is the async-checkpoint capture: an O(partitions)
// copy-on-write view of the rank columns, encoded from checkpoint
// goroutines directly — no per-record re-boxing.
func (c *colPR) captureSnapshot() checkpoint.PartitionSnapshot {
	return colPRCapture{ranks: c.ranks.SnapshotShared()}
}

type colPRCapture struct {
	ranks *state.DenseStore[float64]
}

func (s colPRCapture) NumPartitions() int { return s.ranks.NumPartitions() }

func (s colPRCapture) SnapshotPartition(p int, buf *bytes.Buffer) error {
	return s.ranks.EncodePartition(p, gob.NewEncoder(buf))
}
