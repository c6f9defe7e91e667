package proc

// dataplane.go is the coordinator half of the chunked state-transfer
// path. Each worker brings a small pool of dedicated data connections
// (Config.DataConns) alongside its ctrl and beat conns; bulk state —
// Release migration, checkpoint SnapshotTo fetches, recovery
// RestoreFrom pushes — streams over them as bounded DataChunk frames
// instead of one monolithic RPC blob, off the serialized ctrl path. Each
// chunk is a bounded frame, so the frame cap holds however large the
// state, and the netfault layer (and its fault injection) sees the
// transfer at the same frame granularity as everything else.
//
// Failure model: a transfer that breaks mid-stream abandons its
// connection (closed, never reused — the worker's end unblocks and
// redials the slot) and restarts from scratch on another slot within
// the suspicion-grace budget. That is safe because both directions are
// idempotent — fetch is a read, restore overwrites by value — and it
// means within-grace blips cost zero recovery rounds. Only when the
// budget is exhausted does the failure surface as a transport error,
// which condemns the worker and reaches the driver as a recoverable
// WorkerFailure, exactly like a ctrl RPC.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"optiflow/internal/colbytes"
)

// dataPlane is one worker's pool of data connections on the
// coordinator side. Slots move between three states: down (no usable
// conn — awaiting the worker's redial), idle (in the idle channel) and
// busy (owned by one transfer).
type dataPlane struct {
	mu    sync.Mutex
	conns []net.Conn
	busy  []bool
	idle  chan int
}

func newDataPlane(conns []net.Conn) *dataPlane {
	idle := make(chan int, len(conns))
	for i := range conns {
		idle <- i
	}
	return &dataPlane{conns: conns, busy: make([]bool, len(conns)), idle: idle}
}

// take acquires an idle slot, waiting up to d (or until the worker is
// gone) for one to free up or reconnect.
func (dp *dataPlane) take(d time.Duration, gone <-chan struct{}) (int, net.Conn, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case i := <-dp.idle:
			dp.mu.Lock()
			nc := dp.conns[i]
			if nc == nil {
				// Went down between queueing and take; its reconnect will
				// re-queue it.
				dp.mu.Unlock()
				continue
			}
			dp.busy[i] = true
			dp.mu.Unlock()
			return i, nc, nil
		case <-gone:
			return 0, nil, errors.New("proc: worker gone")
		case <-timer.C:
			return 0, nil, errors.New("proc: no data connection available")
		}
	}
}

// release returns a slot after a transfer. A failed transfer's
// connection is closed and the slot marked down until the worker
// redials it; a clean transfer re-queues the slot — unless a reconnect
// already replaced the connection underneath us, in which case the
// replacement was queued by attach and this one is stale.
func (dp *dataPlane) release(i int, nc net.Conn, ok bool) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	dp.busy[i] = false
	if dp.conns[i] != nc {
		// attach swapped in a fresh connection while we were busy and
		// queued the slot; drop our stale handle.
		nc.Close()
		return
	}
	if ok {
		select {
		case dp.idle <- i:
		default:
		}
		return
	}
	nc.Close()
	dp.conns[i] = nil
}

// attach installs a (re)connected data conn on slot i and queues the
// slot unless a transfer currently owns it (release will notice the
// swap).
func (dp *dataPlane) attach(i int, nc net.Conn) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if i < 0 || i >= len(dp.conns) {
		nc.Close()
		return
	}
	if old := dp.conns[i]; old != nil && old != nc {
		old.Close()
	}
	dp.conns[i] = nc
	if !dp.busy[i] {
		select {
		case dp.idle <- i:
		default:
		}
	}
}

// closeAll tears the pool down (condemn, Close).
func (dp *dataPlane) closeAll() {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	for i, nc := range dp.conns {
		if nc != nil {
			nc.Close()
			dp.conns[i] = nil
		}
	}
}

// streamSeq allocates data-plane stream IDs.
var streamSeq atomic.Uint64

// dataAppError marks a stream-level rejection the worker answered
// (DataErr): the worker is alive, so the failure must not feed the
// suspicion ladder or be retried.
type dataAppError struct{ msg string }

func (e *dataAppError) Error() string { return e.msg }

// viewBytesPerVertex converts Config.ChunkVertices into the data plane's
// chunk budget: a vertex costs a presence byte and an 8-byte value in a
// partition view.
const viewBytesPerVertex = 9

// dataTransfer runs fn against the worker's data plane with whole-
// transfer retries inside the suspicion-grace budget, mirroring
// rpcConn.call's ladder semantics: transient breaks retry on a fresh
// slot, an exhausted budget returns a transportError, and a DataErr
// from the worker returns immediately (the worker is alive).
func (c *Coordinator) dataTransfer(p *workerProc, fn func(nc net.Conn) error) error {
	deadline := time.Now().Add(c.cfg.SuspicionGrace)
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.statRetries++
			c.mu.Unlock()
		}
		i, nc, err := p.data.take(time.Until(deadline), p.gone)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return &transportError{err: fmt.Errorf("proc: data transfer: %v (last: %v)", err, lastErr)}
		}
		err = fn(nc)
		if err == nil {
			p.data.release(i, nc, true)
			return nil
		}
		p.data.release(i, nc, false)
		var ae *dataAppError
		if errors.As(err, &ae) {
			return errors.New("proc: " + ae.msg)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return &transportError{err: fmt.Errorf("proc: data transfer retries exhausted after %v: %w", c.cfg.SuspicionGrace, err)}
		}
		select {
		case <-time.After(backoff):
		case <-p.gone:
			return &transportError{err: fmt.Errorf("proc: worker gone: %w", err)}
		}
		if backoff < 8*c.cfg.RetryBackoff {
			backoff *= 2
		}
	}
}

// dataFetch streams the listed partitions' committed state off worker
// p over its data plane, every attempt carrying the commit.
func (c *Coordinator) dataFetch(p *workerProc, commit Owed, parts []int) ([]PartBlob, error) {
	var out []PartBlob
	var buf []byte
	err := c.dataTransfer(p, func(nc net.Conn) error {
		buf = buf[:0]
		stream := streamSeq.Add(1)
		seq := uint32(0)
		nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		req := DataFetchReq{Commit: commit, Stream: stream, ChunkBytes: viewBytesPerVertex * c.cfg.ChunkVertices, Parts: parts}
		if err := writeFrameCfg(nc, 0, req, c.wc); err != nil {
			return err
		}
		for {
			nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
			_, m, err := readFrameCfg(nc, c.wc)
			if err != nil {
				return err
			}
			switch ch := m.(type) {
			case DataChunk:
				if ch.Stream != stream {
					// A frame from an abandoned stream on a reused conn
					// would be a pool bug; treat as fatal for this conn.
					return fmt.Errorf("proc: data fetch: stream %d frame on stream %d", ch.Stream, stream)
				}
				if ch.Seq != seq {
					// A dropped frame mid-stream (fault injection, lossy
					// link) leaves a sequence gap: abandon the connection
					// and retry the whole idempotent transfer rather than
					// silently reassembling partial state.
					return fmt.Errorf("proc: data fetch: chunk seq %d, want %d", ch.Seq, seq)
				}
				seq++
				buf = append(buf, ch.Data...)
				if ch.Done {
					nc.SetDeadline(time.Time{})
					out, err = readChunked(buf)
					return err
				}
			case DataErr:
				return &dataAppError{msg: ch.Msg}
			default:
				return fmt.Errorf("proc: data fetch: unexpected %T", m)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sendChunks streams partition views as one byte section cut into
// DataChunk frames of at most maxBytes each, the last marked Done (an
// empty input still sends one, so every stream terminates explicitly).
func sendChunks(parts []PartBlob, maxBytes int, stream uint64, write func(DataChunk) error) error {
	data := blobSection.append(nil, parts)
	for seq := uint32(0); ; seq++ {
		n := min(len(data), max(maxBytes, 1))
		if err := write(DataChunk{Stream: stream, Seq: seq, Done: n == len(data), Data: data[:n]}); err != nil {
			return err
		}
		if data = data[n:]; len(data) == 0 {
			return nil
		}
	}
}

// readChunked decodes the reassembled bytes of a chunk stream.
func readChunked(buf []byte) ([]PartBlob, error) {
	r := colbytes.NewReader(buf)
	parts := blobSection.read(r, nil)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("proc: reassembled state stream: %w", err)
	}
	return parts, nil
}

// dataRestore streams partition state onto worker p over its data
// plane. Chunks are written back-to-back; the worker reassembles them,
// applies the views after the Done chunk and acks once.
func (c *Coordinator) dataRestore(p *workerProc, parts []PartBlob) error {
	return c.dataTransfer(p, func(nc net.Conn) error {
		stream := streamSeq.Add(1)
		nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		if err := writeFrameCfg(nc, 0, DataRestoreReq{Stream: stream}, c.wc); err != nil {
			return err
		}
		err := sendChunks(parts, viewBytesPerVertex*c.cfg.ChunkVertices, stream, func(ch DataChunk) error {
			nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
			return writeFrameCfg(nc, 0, ch, c.wc)
		})
		if err != nil {
			return err
		}
		nc.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		_, m, err := readFrameCfg(nc, c.wc)
		if err != nil {
			return err
		}
		nc.SetDeadline(time.Time{})
		switch a := m.(type) {
		case DataAck:
			if a.Stream != stream {
				return fmt.Errorf("proc: data restore: ack for stream %d, want %d", a.Stream, stream)
			}
			return nil
		case DataErr:
			return &dataAppError{msg: a.Msg}
		default:
			return fmt.Errorf("proc: data restore: unexpected %T", m)
		}
	})
}

// fetchState reads the committed state views of parts from worker w —
// over the data plane when it has one, else a monolithic ctrl RPC. The
// fetch carries w's debt either way.
func (c *Coordinator) fetchState(w int, parts []int) (out []PartBlob, err error) {
	err = c.onProc(w, "state fetch", func(p *workerProc, owed Owed) (err error) {
		if p.data != nil {
			out, err = c.dataFetch(p, owed, parts)
			return err
		}
		resp, err := p.ctrl.call(FetchReq{Commit: owed, Parts: parts}, nil)
		if err == nil {
			out = resp.(FetchResp).Parts
		}
		return err
	})
	return out, err
}

// restoreState overwrites partition state on worker w — data plane when
// it has one, ctrl RPC otherwise — once w's debt is settled.
func (c *Coordinator) restoreState(w int, parts []PartBlob) error {
	return c.onProc(w, "state restore", func(p *workerProc, owed Owed) error {
		if err := p.settle(owed); err != nil {
			return err
		}
		if p.data != nil {
			return c.dataRestore(p, parts)
		}
		_, err := p.ctrl.call(RestoreReq{Parts: parts}, nil)
		return err
	})
}
