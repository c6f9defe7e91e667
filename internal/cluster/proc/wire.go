// Package proc is the multi-process deployment of the cluster model: a
// coordinator process (the driver) and worker daemons that are real
// operating-system processes, connected over TCP with gob-encoded
// frames. It is the "in action" counterpart of the in-process
// simulation in package cluster — same Interface, same membership
// semantics, but Fail(w) delivers an actual SIGKILL and recovery
// re-provisions an actual process.
//
// The wire protocol is deliberately small: every connection starts with
// a Hello handshake naming the worker and the connection's role
// ("ctrl" for serialized request/response RPC — supersteps and state
// moves alike — and "beat" for the worker's heartbeat push stream),
// after which each side exchanges frames. Since protocol v2 each frame
// is length-prefixed (netfault.HeaderLen bytes of big-endian payload
// length) and self-contained: a dropped, duplicated or delayed frame
// cannot desynchronise the stream the way shared-codec gob state
// would, and a reconnected connection resumes mid-job with no carried
// codec state. Since protocol v3 the payload's first byte selects its
// codec (see internal/cluster/proc/wire), and since protocol v4 every
// payload has exactly one: control frames are gob with a fresh
// encoder/decoder pair per frame, hot-path payloads — exchange columns,
// partition state views, adjacency, and every request that carries a
// commit — the raw columnar encoding of raw.go. What those carry is
// opaque here: exec.HostedCols are ColBatch column views the engine
// writes and reads, partition views are state.DenseStore partition
// bytes the hosted job writes and reads.
// Frames carry an ID used as an idempotence token on ctrl RPCs —
// responses echo their request's ID, so the coordinator can discard
// stale responses after a retry and the worker can answer a duplicate
// request from cache instead of re-applying it. All message types are
// listed in wireMessages, and the wire-compatibility test round-trips
// every one of them through a freshly started subprocess decoder to pin
// cross-process decodability.
package proc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/cluster/proc/wire"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// ProtoVersion is the wire protocol version. A Hello with a different
// version is rejected during the handshake, so a stale worker binary
// cannot silently exchange frames with a newer coordinator. Version 2
// introduced length-prefixed self-contained frames and idempotence
// IDs; version 3 added the per-payload codec tag (gob or raw
// columnar) and a data-plane connection role; version 4 replaced the
// per-vertex message and state payloads with engine column views and
// partition byte views; version 5 added the carried commit (Owed);
// version 6 the compensation round (CompensateReq); version 7 the
// commit a CompensateReq carries; version 8 dropped the data plane, so
// state moves as ctrl RPCs, and gave FetchReq the raw codec; version 9
// added the worker's allocation counters to WorkerStats.
const ProtoVersion = 9

// Frame is the unit of transmission: one gob value wrapping one
// message. Wrapping in an interface-typed field keeps each frame
// self-describing — the decoder learns the concrete type from the gob
// type descriptor, so request dispatch is a type switch. ID is the
// ctrl-RPC idempotence token (responses echo their request's ID); it is
// zero on handshake and heartbeat frames.
type Frame struct {
	ID uint64
	M  any
}

// Hello opens every connection. Token authenticates the worker to the
// coordinator (it is handed to the worker process via its environment,
// so only processes the coordinator spawned can join). Conn is the
// connection's role: "ctrl" or "beat".
type Hello struct {
	Proto  int
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
type HelloOK struct {
	Proto int
}

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
// one as a raw payload (raw.go); RestoreFrom decodes it and pushes the
// partitions to their current owners.
type JobSnapshot struct {
	Kind  string
	Parts []PartBlob
}

// wireMessages lists every concrete type that travels gob-encoded
// inside a Frame — the control frames — in a fixed order shared by gob
// registration and the cross-process wire-compatibility check. Hot-path
// payloads are not here: they have a raw kind (rawKindOf) and no gob
// form, so a gob frame claiming to carry one fails to decode.
func wireMessages() []any {
	return []any{
		Hello{}, HelloOK{}, Heartbeat{},
		OKResp{}, ErrResp{}, PingReq{},
		CommitReq{}, AbortReq{},
		ClearReq{},
		ShutdownReq{},
		StatsReq{}, WorkerStats{},
		checkpoint.CommitRecord{},
	}
}

func init() {
	for _, m := range wireMessages() {
		gob.Register(m)
	}
}

// wireCfg is the connection-local wire policy: the (configurable) frame
// size cap.
type wireCfg struct {
	maxFrame int // payload cap; 0 = netfault.MaxFrame
}

// defaultWire is the policy of plain writeFrame/readFrame callers
// (handshakes, heartbeats, the gob-check child): frames capped at the
// hard ceiling.
var defaultWire = &wireCfg{}

// max returns the effective payload cap.
func (wc *wireCfg) max() int {
	if wc == nil || wc.maxFrame <= 0 || wc.maxFrame > netfault.MaxFrame {
		return netfault.MaxFrame
	}
	return wc.maxFrame
}

// sliceWriter adapts an append-grown []byte to io.Writer for the gob
// encoder, so gob frames assemble in the same pooled buffer raw frames
// do.
type sliceWriter struct{ b []byte }

func (sw *sliceWriter) Write(p []byte) (int, error) {
	sw.b = append(sw.b, p...)
	return len(p), nil
}

// appendFrame appends one complete length-prefixed frame for m to dst:
// raw codec for hot-path payloads, gob for control frames. The returned
// slice is dst possibly regrown.
func appendFrame(dst []byte, id uint64, m any, wc *wireCfg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, netfault.HeaderLen)...)
	if kind, ok := rawKindOf(m); ok {
		dst = appendRawPayload(dst, kind, id, m)
	} else {
		sw := sliceWriter{b: append(dst, wire.CodecGob)}
		if err := gob.NewEncoder(&sw).Encode(Frame{ID: id, M: m}); err != nil {
			return dst[:start], fmt.Errorf("proc: encoding %T: %v", m, err)
		}
		dst = sw.b
	}
	payload := len(dst) - start - netfault.HeaderLen
	if err := wire.CheckSize(payload, wc.max()); err != nil {
		return dst[:start], fmt.Errorf("proc: encoding %T: %w", m, err)
	}
	netfault.PutHeader(dst[start:], payload)
	return dst, nil
}

// framePool recycles frame-assembly and frame-receive buffers across
// the send and receive loops — the PR 10 fix for the per-frame
// allocations that dominated the proc hot path.
var framePool = sync.Pool{New: func() any { return &wire.Buf{} }}

// writeFrameCfg writes one message as a single self-contained frame
// under the given policy. The frame reaches the connection in exactly
// one Write call — the contract the netfault wrapper relies on to see
// frame boundaries — and its buffer returns to the pool afterwards.
func writeFrameCfg(w io.Writer, id uint64, m any, wc *wireCfg) error {
	buf := framePool.Get().(*wire.Buf)
	b, err := appendFrame(buf.B[:0], id, m, wc)
	buf.B = b[:0]
	if err != nil {
		framePool.Put(buf)
		return err
	}
	_, err = w.Write(b)
	framePool.Put(buf)
	if err != nil {
		return fmt.Errorf("proc: writing %T: %w", m, err)
	}
	return nil
}

// writeFrame writes a message under the default policy with no
// idempotence token (handshake, heartbeat and push frames).
func writeFrame(w io.Writer, m any) error {
	return writeFrameCfg(w, 0, m, defaultWire)
}

// readFrameCfg reads the next complete frame under the given policy,
// returning its idempotence token alongside the message. The payload is
// read into a pooled buffer; both codecs' decoders copy everything out
// (gob by construction, raw by the arena rule), so the buffer recycles
// immediately. Read errors from the connection are returned wrapped
// (%w) so deadline expiry stays detectable via net.Error.
func readFrameCfg(r io.Reader, wc *wireCfg) (uint64, any, error) {
	return readFrameInto(r, wc, nil)
}

// readFrameInto is readFrameCfg decoding a superstep's exchange columns
// into arena, which the caller recycles (see recycle); nil allocates.
func readFrameInto(r io.Reader, wc *wireCfg, arena *[]byte) (uint64, any, error) {
	var hdr [netfault.HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, err := netfault.ParseHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if err := wire.CheckSize(n, wc.max()); err != nil {
		return 0, nil, fmt.Errorf("proc: reading frame: %w", err)
	}
	buf := framePool.Get().(*wire.Buf)
	defer framePool.Put(buf)
	if cap(buf.B) < n {
		buf.B = make([]byte, n)
	}
	payload := buf.B[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("proc: reading frame body: %w", err)
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("proc: empty frame: %w", wire.ErrMalformed)
	}
	switch payload[0] {
	case wire.CodecRaw:
		return decodeRawPayload(payload[1:], arena)
	case wire.CodecGob:
		var f Frame
		if err := gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(&f); err != nil {
			return 0, nil, fmt.Errorf("proc: decoding frame: %v: %w", err, wire.ErrMalformed)
		}
		if f.M == nil {
			return 0, nil, fmt.Errorf("proc: empty frame: %w", wire.ErrMalformed)
		}
		return f.ID, f.M, nil
	default:
		return 0, nil, fmt.Errorf("proc: unknown frame codec %#x: %w", payload[0], wire.ErrMalformed)
	}
}

// readFrame reads the next frame's message under the default policy,
// discarding the token.
func readFrame(r io.Reader) (any, error) {
	_, m, err := readFrameCfg(r, defaultWire)
	return m, err
}

// isTimeout reports whether err is (or wraps) a network timeout — the
// signal that a frame may have been lost in flight, as opposed to the
// connection being broken.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
