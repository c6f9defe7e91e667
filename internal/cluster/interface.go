package cluster

import (
	"errors"
	"fmt"
)

// Interface is the contract shared by every cluster backend: the
// in-process simulation (*Cluster, this package) and the multi-process
// TCP cluster (*proc.Coordinator, package cluster/proc). iterate.Loop,
// the recovery supervisor and every experiment are written against this
// interface so any cluster-facing test can run in both modes.
//
// Both backends keep their membership in a *Cluster, so its methods
// define the semantics: the coordinator only adds processes around them
// — Fail is a real SIGKILL, AcquireN adopts or spawns a worker process,
// Release migrates the leaving worker's state. Callers of AcquireN must
// check len(workers), not assume the requested count.
type Interface interface {
	NumPartitions() int
	Workers() []int
	Owner(p int) int
	PartitionsOf(w int) []int
	IsAlive(w int) bool

	Spares() int
	AddSpares(n int)

	Fail(w int) []int
	Release(w int) error
	Acquire() (worker int, adopted []int)
	AcquireN(n int) (workers []int, adopted [][]int, err error)
	Orphaned() []int
	AssignOrphans() (map[int][]int, error)

	Note(kind EventKind, detail string, partitions []int)
	Events() []Event
	DroppedEvents() int
}

var _ Interface = (*Cluster)(nil)

// NetStats are a cluster backend's gray-failure counters: how often the
// RPC layer retried, how often a worker connection was re-established,
// and how far workers climbed the suspicion ladder. The in-process
// simulation has no network, so only backends that really exchange
// frames (cluster/proc) report non-zero values.
type NetStats struct {
	// RPCRetries counts ctrl-RPC attempts beyond the first.
	RPCRetries int
	// Reconnects counts broken ctrl/beat connections a worker
	// re-established within its grace window.
	Reconnects int
	// Suspected counts workers that entered the suspicion ladder
	// (missed beats or a broken connection).
	Suspected int
	// Condemned counts workers the ladder declared failed (grace
	// expired, retries exhausted, process reaped, or straggling).
	Condemned int
	// Fenced counts handshakes rejected because the dialing worker had
	// already been condemned or replaced — the zombie-write guard.
	Fenced int
}

// NetReporter is implemented by cluster backends that expose network
// fault counters. Probes type-assert for it; absence means the backend
// has no network to observe.
type NetReporter interface {
	NetStats() NetStats
}

// Release rejection reasons, carried inside *ReleaseError. Releasing is
// cooperative decommissioning, so only a currently-live worker
// qualifies; everything else used to be accepted silently (or with an
// untyped error), letting a buggy supervisor inflate the spare pool by
// releasing the same machine twice or "returning" a machine it never
// held.
var (
	// ErrUnknownWorker: the ID was never provisioned by this cluster.
	ErrUnknownWorker = errors.New("worker was never provisioned")
	// ErrDoubleRelease: the worker was already released; its machine is
	// back in the spare pool and cannot be returned a second time.
	ErrDoubleRelease = errors.New("worker already released")
	// ErrDeadWorker: the worker failed (crashed) rather than being
	// decommissioned; its machine is gone, not reusable as a spare.
	ErrDeadWorker = errors.New("worker failed, not released")
	// ErrLastWorker: releasing the last live worker would leave the
	// partitions with no host.
	ErrLastWorker = errors.New("cannot release the last live worker")
)

// ReleaseError is the typed rejection returned by Release. Match the
// cause with errors.Is against the Err* sentinels above.
type ReleaseError struct {
	Worker int
	Reason error
}

func (e *ReleaseError) Error() string {
	return fmt.Sprintf("cluster: cannot release worker %d: %v", e.Worker, e.Reason)
}

// Unwrap exposes the sentinel reason to errors.Is.
func (e *ReleaseError) Unwrap() error { return e.Reason }
