// Package hostedtest drives a hosted columnar job — cc.Hosted,
// pagerank.Hosted, a minfold.Hosted — the way two worker processes and
// the driver relaying their columns do, for the jobs' tests.
package hostedtest

import (
	"bytes"
	"fmt"
	"slices"

	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
)

// Host is one worker's share of a hosted job.
type Host interface {
	Step(prime bool, dangling float64, remote []exec.HostedCols) (exec.HostedOut, error)
	Commit()
	Abort()
	AppendPartition(dst []byte, p int) []byte
	// HeldRows counts the committed rows kept for its own partitions.
	HeldRows() int
}

// Pair is a job split over two hosts, owner[p] hosting partition p,
// and the driver between them: it relays each step's columns through
// two arenas it reuses, as the workers' inbox arenas are, so a steady
// Step allocates only what the hosts do.
type Pair struct {
	hosts    [2]Host
	owner    []int
	in       [2][]exec.HostedCols
	arena    [2][]byte
	dangling float64
	primed   bool
}

// NewPair pairs two hosts; the first Step primes them.
func NewPair(hosts [2]Host, owner []int) *Pair {
	return &Pair{hosts: hosts, owner: owner}
}

// attempt runs one step attempt on both hosts with inboxes in.
func (r *Pair) attempt(in [2][]exec.HostedCols) (outs [2]exec.HostedOut, err error) {
	for w, h := range r.hosts {
		if outs[w], err = h.Step(!r.primed, r.dangling, in[w]); err != nil {
			return outs, fmt.Errorf("host %d: %w", w, err)
		}
	}
	return outs, nil
}

// abort is the driver's AbortReq to both hosts.
func (r *Pair) abort() {
	for _, h := range r.hosts {
		h.Abort()
	}
}

// Step runs the next superstep, commits it and relays its columns. The
// outcomes alias the hosts' buffers until their next step.
func (r *Pair) Step() ([2]exec.HostedOut, error) {
	outs, err := r.attempt(r.in)
	if err != nil {
		return outs, err
	}
	r.primed, r.dangling = true, 0
	for w, h := range r.hosts {
		h.Commit()
		r.in[w], r.arena[w] = r.in[w][:0], r.arena[w][:0]
	}
	for _, out := range outs {
		r.dangling += out.Dangling
		for _, rc := range out.Remote {
			w := r.owner[rc.Dst]
			r.arena[w] = append(r.arena[w], rc.Cols...)
			rc.Cols = r.arena[w][len(r.arena[w])-len(rc.Cols):]
			r.in[w] = append(r.in[w], rc)
		}
	}
	return outs, nil
}

// Traffic reports what the last Step exchanged: the bytes of the
// columns relayed between the hosts, and the rows each host kept, typed,
// for its own partitions.
func (r *Pair) Traffic() (remoteBytes, heldRows int) {
	for w, h := range r.hosts {
		remoteBytes += len(r.arena[w])
		heldRows += h.HeldRows()
	}
	return remoteBytes, heldRows
}

// AbortTwin runs a job twice side by side on two hosts each, build
// making a fresh pair of hosts: the twin never aborts, the other run
// aborts attempts and replays them. It aborts the priming step
// (superstep 0); superstep 5 after it succeeded — the driver's
// AbortReq, after five commits whose captures were recycled and after
// the step's own fold moved the workset; superstep 6 twice in a row;
// and superstep 8 after host 0's Fold met a row for a vertex its last
// partition does not own, its other partitions already folded and
// applied. After every step each host's outcome and the columns it
// sent, and every partition's state view, must be byte-identical to
// the twin's. partOf maps a dense vertex index to its partition.
func AbortTwin(build func() [2]Host, owner []int, partOf []int32, steps int) error {
	twin, run := NewPair(build(), owner), NewPair(build(), owner)
	for s := 0; s < steps; s++ {
		want, err := twin.Step()
		if err != nil {
			return fmt.Errorf("twin, superstep %d: %w", s, err)
		}
		for range map[int]int{0: 1, 5: 1, 6: 2}[s] {
			if _, err := run.attempt(run.in); err != nil {
				return fmt.Errorf("superstep %d, attempt to abort: %w", s, err)
			}
			run.abort()
		}
		if s == 8 {
			if _, err := run.attempt(misroute(run.in, owner, partOf)); err == nil {
				return fmt.Errorf("superstep %d: host 0 folded a misrouted row", s)
			}
			run.abort()
		}
		got, err := run.Step()
		if err != nil {
			return fmt.Errorf("superstep %d: %w", s, err)
		}
		for w := range got {
			if !sameOut(got[w], want[w]) {
				return fmt.Errorf("superstep %d: host %d's outcome differs from the twin's:\n got  %+v\n want %+v", s, w, got[w], want[w])
			}
		}
		for p, w := range owner {
			if !bytes.Equal(run.hosts[w].AppendPartition(nil, p), twin.hosts[w].AppendPartition(nil, p)) {
				return fmt.Errorf("superstep %d: partition %d's state view differs from the twin's", s, p)
			}
		}
	}
	return nil
}

// misroute returns a copy of in whose column set from a peer into host
// 0's last partition ends with a row for a vertex of another partition.
func misroute(in [2][]exec.HostedCols, owner []int, partOf []int32) [2][]exec.HostedCols {
	last := -1
	for p, w := range owner {
		if w == 0 {
			last = p
		}
	}
	foreign := int32(slices.IndexFunc(partOf, func(p int32) bool { return int(p) != last }))
	row := colbytes.AppendU64s(colbytes.AppendI32s(nil, []int32{foreign}), []uint64{0})
	bad := in
	bad[0] = slices.Clone(in[0])
	for i, rc := range bad[0] {
		if rc.Dst == last {
			bad[0][i].Cols = append(bytes.Clone(rc.Cols), row...)
			return bad
		}
	}
	bad[0] = append(bad[0], exec.HostedCols{Src: slices.Index(owner, 1), Dst: last, Cols: row})
	return bad
}

// sameOut reports whether two outcomes of a step are byte-identical.
func sameOut(a, b exec.HostedOut) bool {
	if a.Messages != b.Messages || a.Updates != b.Updates || a.Folded != b.Folded ||
		a.Dangling != b.Dangling || a.L1 != b.L1 || len(a.Remote) != len(b.Remote) {
		return false
	}
	for i, rc := range a.Remote {
		if o := b.Remote[i]; rc.Src != o.Src || rc.Dst != o.Dst || !bytes.Equal(rc.Cols, o.Cols) {
			return false
		}
	}
	return true
}
