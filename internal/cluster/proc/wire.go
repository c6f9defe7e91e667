// Package proc is the multi-process deployment of the cluster model: a
// coordinator process (the driver) and worker daemons that are real
// operating-system processes, connected over TCP. It is the "in action"
// counterpart of the in-process simulation in package cluster — same
// Interface, same membership semantics, but Fail(w) delivers an actual
// SIGKILL and recovery re-provisions an actual process.
//
// The wire protocol is deliberately small: every connection starts with
// a Hello handshake naming the worker and the connection's role
// ("ctrl" for serialized request/response RPC — supersteps and state
// moves alike — and "beat" for the worker's heartbeat push stream),
// after which each side exchanges frames. A frame is self-contained:
//
//	[length: 4 bytes BE][version][kind][id: 8 bytes LE][body]
//
// The length prefix is netfault's (netfault.HeaderLen bytes, capped at
// netfault.MaxFrame), so a dropped, duplicated or delayed frame cannot
// desynchronise the stream and a reconnected connection resumes mid-job
// with no carried codec state. The kind byte names the message type and
// the body is its one encoding, the columnar codec of raw.go: control
// messages are a few fixed-width fields, hot-path payloads — exchange
// columns, partition state views, adjacency — column segments written
// by loops over the job's flat arrays. What those carry is opaque here:
// exec.HostedCols are ColBatch column views the engine writes and
// reads, partition views are state.DenseStore partition bytes the
// hosted job writes and reads.
//
// The version byte is the protocol's only version: a peer speaking
// another one fails every frame with *VersionError, the Hello first, so
// a stale worker binary cannot exchange frames with a newer
// coordinator. The id is the ctrl-RPC idempotence token — responses
// echo their request's ID, so the coordinator can discard stale
// responses after a retry and the worker can answer a duplicate request
// from cache instead of re-applying it; it is zero on handshake and
// heartbeat frames.
package proc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// wireVersion is the frame format version, and the protocol's only
// one. Bump it whenever a body encoding changes shape; the decoder
// rejects any other version with *VersionError.
const wireVersion byte = 7

// SizeError is the typed oversized-frame rejection, raised on the
// encode path (a frame grew past netfault.MaxFrame before hitting the
// network) and on the decode path (a length prefix claims more, before
// any payload byte is read). It ends the connection: a frame too large
// to buffer cannot be skipped on a stream.
type SizeError struct {
	Size  int // payload bytes, excluding the length prefix
	Limit int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("proc: frame payload %d bytes exceeds cap %d", e.Size, e.Limit)
}

// checkSize validates a payload size against netfault.MaxFrame.
func checkSize(size int) error {
	if size > netfault.MaxFrame {
		return &SizeError{Size: size, Limit: netfault.MaxFrame}
	}
	return nil
}

// ErrMalformed marks a frame that makes no sense — an empty payload, an
// unknown kind, a body that does not decode. A truncated or corrupt
// body's error also wraps colbytes.ErrTruncated.
var ErrMalformed = errors.New("proc: malformed frame")

// VersionError is the typed format version rejection.
type VersionError struct {
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("proc: frame format version %d, this binary speaks %d", e.Got, e.Want)
}

// Hello opens every connection. Token authenticates the worker to the
// coordinator (it is handed to the worker process via its environment,
// so only processes the coordinator spawned can join). Conn is the
// connection's role: "ctrl" or "beat".
type Hello struct {
	Worker int
	Token  string
	Conn   string
}

// Connection roles named in Hello.Conn.
const (
	ConnCtrl = "ctrl"
	ConnBeat = "beat"
)

// HelloOK acknowledges a Hello.
type HelloOK struct{}

// Heartbeat is pushed periodically by the worker on its beat
// connection. Seq increases monotonically per worker.
type Heartbeat struct {
	Worker int
	Seq    uint64
}

// OKResp acknowledges a request that returns no payload.
type OKResp struct{}

// ErrResp reports a request failure; the RPC layer surfaces it as an
// error to the caller.
type ErrResp struct {
	Msg string
}

// PingReq checks liveness over the ctrl connection.
type PingReq struct{}

// LoadReq tells a worker which partitions it hosts from now on and hands
// it their adjacency: the global sorted vertex-ID column every process
// derives the same dense indices and partitioning from, and the CSR of
// the graph restricted to the hosted partitions (graph.Restrict). The
// worker rebuilds its job over it. Fresh partitions start in
// superstep-zero state — all of them at initial placement and on a
// replacement worker, the adopted ones on a survivor, whose other
// partitions keep their state; the driver then Clears or Restores per
// the recovery policy.
type LoadReq struct {
	Job           string
	Kind          string
	NumPartitions int
	Damping       float64
	IDs           []graph.VertexID
	Hosted        []int
	Fresh         []int
	Offsets       []int32
	Targets       []int32
	Weights       []float64
}

// Algorithm kinds named in LoadReq.Kind.
const (
	KindCC       = "cc"
	KindPageRank = "pagerank"
)

// StepReq runs one superstep attempt over the worker's partitions: fold
// the exchange columns the previous attempt's expansion produced —
// Inbox carries those of partitions hosted elsewhere, the worker holds
// its own — then expand the new state. Rescatter makes it a priming
// step: nothing is folded and every hosted vertex re-announces its
// committed state. Dangling is the dangling-rank mass the previous
// superstep's responses added up to (PageRank only). The attempt stays
// held until a later request's Commit names it — the next StepReq, so a
// superstep is one round trip — or AbortReq drops it, to be replayed
// against unchanged state. A Commit of any other superstep is refused.
type StepReq struct {
	Commit    Owed
	Superstep int
	Rescatter bool
	Dangling  float64
	Inbox     []exec.HostedCols
}

// StepResp reports one superstep attempt's outputs: exchange columns
// bound for partitions hosted elsewhere, partial scalars, counters.
type StepResp = exec.HostedOut

// Owed names a superstep the driver decided committed — every worker
// answered its StepReq — but has not told this worker. The next request
// pays the debt: a StepReq, CompensateReq or FetchReq carries it as
// Commit, a CommitReq goes ahead of any other. The zero value owes
// nothing.
type Owed struct {
	Superstep int
	Set       bool
}

// CompensateReq runs one worker's share of the optimistic compensation
// on its committed state, outside any attempt. Lost lists every partition
// the failure destroyed, Fill those this worker hosts now — freshly
// loaded, holding no columns they sent. The worker reports the state mass
// of its surviving partitions, gives the Fill partitions their
// compensated state (PageRank: a uniform share of 1 − Surviving, the
// survivors' combined mass) and expands them, and whatever surviving
// vertices the job re-activates, into the columns it holds; the rest of
// those stay. Survivors are asked first, with an empty Fill and the
// commit they are owed as Commit.
type CompensateReq struct {
	Commit    Owed
	Lost      []int
	Fill      []int
	Surviving float64
}

// CompensateResp reports that expansion as a StepResp would — new rows
// bound for partitions hosted elsewhere, their count, the worker's
// dangling mass — plus the mass of the worker's surviving partitions.
type CompensateResp struct {
	Remote    []exec.HostedCols
	Messages  int64
	Dangling  float64
	Surviving float64
}

// CommitReq commits the named superstep's held attempt on its own.
type CommitReq struct {
	Superstep int
}

// AbortReq drops the pending updates of the previous StepReq, leaving
// state as it was before the attempt.
type AbortReq struct{}

// PartBlob is the committed state of one partition as the hosted job's
// partition byte view (a DenseStore column dump).
type PartBlob struct {
	Part int
	Data []byte
}

// FetchReq reads the committed state of the listed partitions
// (checkpoint capture, final result collection, release migration),
// after committing what Commit names.
type FetchReq struct {
	Commit Owed
	Parts  []int
}

// FetchResp answers a FetchReq.
type FetchResp struct {
	Parts []PartBlob
}

// RestoreReq overwrites the listed partitions' state (checkpoint
// rollback, release migration).
type RestoreReq struct {
	Parts []PartBlob
}

// ClearReq reinitialises the listed partitions to superstep-zero state
// — the direct effect of their previous owner crashing, and, for every
// partition, the restart policy.
type ClearReq struct {
	Parts []int
}

// ShutdownReq asks the worker to exit cleanly (cooperative Release —
// unlike the SIGKILL of Fail).
type ShutdownReq struct{}

// StatsReq asks a worker for its request-handling counters — the
// observability hook the idempotence regression tests use to prove a
// retried RPC was answered from cache rather than re-applied.
type StatsReq struct{}

// WorkerStats answers a StatsReq. Handled counts requests whose effect
// was applied exactly once; Replayed counts duplicate deliveries that
// were answered from the idempotence cache without re-applying;
// CommitsCarried and CommitsExplicit count held attempts committed by a
// request's Commit field and by a CommitReq; Rescatters counts priming
// steps run. AllocBytes, Mallocs and GCCycles are the worker process's
// runtime.MemStats TotalAlloc, Mallocs and NumGC, read when the
// StatsReq is handled.
type WorkerStats struct {
	Handled         uint64
	Replayed        uint64
	CommitsCarried  uint64
	CommitsExplicit uint64
	Rescatters      uint64
	AllocBytes      uint64
	Mallocs         uint64
	GCCycles        uint64
}

// JobSnapshot is a proc job's checkpoint: every partition's committed
// state view. The exchange columns in flight are not part of it — a
// restored job re-announces them with a priming step. SnapshotTo writes
// one as a frame payload (raw.go); RestoreFrom decodes it and pushes the
// partitions to their current owners.
type JobSnapshot struct {
	Kind  string
	Parts []PartBlob
}

// appendFrame appends one complete length-prefixed frame for m to dst.
// The returned slice is dst possibly regrown; on error it is dst as it
// was.
func appendFrame(dst []byte, id uint64, m any) ([]byte, error) {
	start := len(dst)
	dst, err := appendPayload(append(dst, make([]byte, netfault.HeaderLen)...), id, m)
	payload := len(dst) - start - netfault.HeaderLen
	if err == nil {
		err = checkSize(payload)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("proc: encoding %T: %w", m, err)
	}
	netfault.PutHeader(dst[start:], payload)
	return dst, nil
}

// frameBuf is a pooled frame-assembly or frame-receive buffer, pooled as
// a pointer so returning one does not itself allocate a slice header.
type frameBuf struct{ b []byte }

// framePool recycles frame-assembly and frame-receive buffers across
// the handshakes, the heartbeat streams and the worker's ctrl loop, so a
// frame costs no buffer allocation once the pool is warm. The
// coordinator's ctrl connections keep their own (rpcConn.buf): a GC
// empties the pool, and their frames are a superstep's largest.
var framePool = sync.Pool{New: func() any { return &frameBuf{} }}

// writeFrame writes one message as a single self-contained frame
// carrying idempotence token id (zero on handshake, heartbeat and push
// frames). The frame reaches the connection in exactly one Write call —
// the contract the netfault wrapper relies on to see frame boundaries —
// and its buffer returns to the pool afterwards.
func writeFrame(w io.Writer, id uint64, m any) error {
	buf := framePool.Get().(*frameBuf)
	defer framePool.Put(buf)
	return writeFrameFrom(w, &buf.b, id, m)
}

// writeFrameFrom is writeFrame assembling the frame in *buf, which it
// regrows as the frame needs and leaves for the next one.
func writeFrameFrom(w io.Writer, buf *[]byte, id uint64, m any) error {
	b, err := appendFrame((*buf)[:0], id, m)
	*buf = b[:0]
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("proc: writing %T: %w", m, err)
	}
	return nil
}

// readFrame reads the next complete frame, returning its
// idempotence token alongside the message; the exchange columns of a
// StepReq or StepResp decode into arena (see recycle), nil allocates.
// The length prefix is checked against netfault.MaxFrame before any
// payload byte is read, and the payload lands in a pooled buffer the
// decoders copy everything out of, so it recycles immediately. Read
// errors from the connection are returned wrapped (%w) so deadline
// expiry stays detectable via net.Error.
func readFrame(r io.Reader, arena *[]byte) (uint64, any, error) {
	buf := framePool.Get().(*frameBuf)
	defer framePool.Put(buf)
	return readFrameInto(r, &buf.b, arena, nil)
}

// readFrameInto is readFrame receiving into *buf, which it regrows as
// the payload needs and leaves for the next frame, and decoding a
// StepResp or FetchResp into rl when that is set (see decodeInto).
func readFrameInto(r io.Reader, buf *[]byte, arena *[]byte, rl *relay) (uint64, any, error) {
	if cap(*buf) < netfault.HeaderLen {
		*buf = make([]byte, 0, netfault.HeaderLen)
	}
	hdr := (*buf)[:netfault.HeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if err := checkSize(n); err != nil {
		return 0, nil, fmt.Errorf("proc: reading frame: %w", err)
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("proc: empty frame: %w", ErrMalformed)
	}
	payload, err := readPayload(r, (*buf)[:0], n)
	*buf = payload[:0]
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("proc: reading frame body: %w", err)
	}
	return decodeInto(payload, arena, rl)
}

// readPayload reads an n-byte payload into b's memory. A b with room
// for n is filled in one read; a smaller one grows only as bytes
// arrive, first to 32 KiB and then at most doubling, so a length prefix
// claiming more than the peer sends costs 32 KiB plus a few times what
// it did send, not what it claimed.
func readPayload(r io.Reader, b []byte, n int) ([]byte, error) {
	for len(b) < n {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(n, len(b)+max(len(b), 32<<10)))
			b = grown[:copy(grown, b)]
		}
		k, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// isTimeout reports whether err is (or wraps) a network timeout — the
// signal that a frame may have been lost in flight, as opposed to the
// connection being broken.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
