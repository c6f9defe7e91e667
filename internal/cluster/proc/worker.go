package proc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"time"

	"optiflow/internal/algo/cc"
	"optiflow/internal/algo/pagerank"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// WorkerConfig parameterises one worker daemon.
type WorkerConfig struct {
	// Addr is the coordinator's listen address to dial.
	Addr string
	// Worker is the ID the coordinator assigned this process.
	Worker int
	// Token authenticates the Hello handshake.
	Token string
	// Heartbeat is the beat-push interval (250ms if zero).
	Heartbeat time.Duration
	// HandshakeTimeout bounds each Hello exchange (10s if zero); the
	// coordinator passes its own configured value down via the
	// environment.
	HandshakeTimeout time.Duration
	// ReconnectGrace is how long a broken connection is redialed before
	// the worker gives up and exits (8s if zero). The coordinator sets
	// it to outlast its own suspicion grace, so a healed link can
	// rejoin right up to the condemn verdict.
	ReconnectGrace time.Duration
	// RetryBackoff is the initial redial backoff, doubled per attempt
	// and capped at 8x (25ms if zero).
	RetryBackoff time.Duration
}

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 250 * time.Millisecond
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.ReconnectGrace <= 0 {
		cfg.ReconnectGrace = 8 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	return cfg
}

// errFenced is the permanent handshake rejection: the coordinator has
// condemned (or replaced) this worker, so redialing is pointless — and
// a fenced worker must NOT keep trying to write state into the job.
var errFenced = errors.New("proc: fenced by coordinator")

// RunWorker runs the worker daemon until the coordinator shuts it down
// (clean exit), fences it, or a broken connection outlives the
// reconnect grace (error exit). It dials a ctrl connection for
// serialized RPC — supersteps and state moves alike — and a beat
// connection for heartbeat pushes, performs the Hello handshake on
// each, then serves ctrl requests one at a time. Broken connections
// are redialed with capped backoff; every frame is self-contained, so
// a reconnected stream resumes with no carried codec state, and the
// idempotence cache answers a retried request without re-applying it.
func RunWorker(cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	ctrl, err := dialHandshake(cfg, ConnCtrl)
	if err != nil {
		return err
	}
	defer func() {
		if ctrl != nil {
			ctrl.Close()
		}
	}()
	beat, err := dialHandshake(cfg, ConnBeat)
	if err != nil {
		return err
	}

	done := make(chan struct{})
	defer close(done)
	go pushHeartbeats(beat, cfg, done)

	h := &workerHost{worker: cfg.Worker, lastStep: -1}
	// Every StepReq's inbox decodes into this one arena: a request is
	// handled before the next is read, and the hosted job borrows its
	// columns only while it folds them.
	var inbox []byte
	for {
		id, req, err := readFrame(ctrl, &inbox)
		if err != nil {
			ctrl.Close()
			if ctrl, err = redial(cfg, ConnCtrl, err); err != nil {
				return err
			}
			continue
		}
		if _, ok := req.(ShutdownReq); ok {
			writeFrame(ctrl, id, OKResp{})
			return nil
		}
		resp := h.dispatch(id, req)
		if err := writeFrame(ctrl, id, resp); err != nil {
			// The response is lost with the connection, but its effect
			// is cached: the coordinator retries the same token and is
			// answered from the cache, not re-applied.
			ctrl.Close()
			if ctrl, err = redial(cfg, ConnCtrl, err); err != nil {
				return err
			}
		}
	}
}

// redial re-establishes one connection after a break, with capped
// backoff, until the reconnect grace expires. A fencing rejection is
// permanent and aborts immediately.
func redial(cfg WorkerConfig, role string, cause error) (net.Conn, error) {
	deadline := time.Now().Add(cfg.ReconnectGrace)
	backoff := cfg.RetryBackoff
	for {
		nc, err := dialHandshake(cfg, role)
		if err == nil {
			return nc, nil
		}
		if errors.Is(err, errFenced) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("proc: worker %d %s broken (%v); reconnect grace %v expired: %v",
				cfg.Worker, role, cause, cfg.ReconnectGrace, err)
		}
		time.Sleep(backoff)
		if backoff < 8*cfg.RetryBackoff {
			backoff *= 2
		}
	}
}

// dialHandshake opens one connection of the given role.
func dialHandshake(cfg WorkerConfig, role string) (net.Conn, error) {
	c, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("proc: worker %d dialing %s: %v", cfg.Worker, cfg.Addr, err)
	}
	hello := Hello{Worker: cfg.Worker, Token: cfg.Token, Conn: role}
	if err := writeFrame(c, 0, hello); err != nil {
		c.Close()
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(cfg.HandshakeTimeout))
	_, m, err := readFrame(c, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("proc: worker %d %s handshake: %w", cfg.Worker, role, err)
	}
	switch resp := m.(type) {
	case HelloOK:
	case ErrResp:
		c.Close()
		if strings.HasPrefix(resp.Msg, "fenced") {
			return nil, fmt.Errorf("proc: worker %d %s handshake: %s: %w", cfg.Worker, role, resp.Msg, errFenced)
		}
		return nil, fmt.Errorf("proc: worker %d %s handshake rejected: %s", cfg.Worker, role, resp.Msg)
	default:
		c.Close()
		return nil, fmt.Errorf("proc: worker %d %s handshake rejected: %T", cfg.Worker, role, m)
	}
	c.SetReadDeadline(time.Time{})
	return c, nil
}

// pushHeartbeats streams Heartbeat frames until done closes. A failed
// write breaks the stream; subsequent ticks redial the beat connection
// (one handshake attempt per tick — the tick interval is the backoff)
// until it is re-established or the worker is fenced.
func pushHeartbeats(nc net.Conn, cfg WorkerConfig, done <-chan struct{}) {
	t := time.NewTicker(cfg.Heartbeat)
	defer t.Stop()
	defer func() {
		if nc != nil {
			nc.Close()
		}
	}()
	var seq uint64
	for {
		select {
		case <-done:
			return
		case <-t.C:
			seq++
			if nc != nil && writeFrame(nc, 0, Heartbeat{Worker: cfg.Worker, Seq: seq}) == nil {
				continue
			}
			if nc != nil {
				nc.Close()
				nc = nil
			}
			fresh, err := dialHandshake(cfg, ConnBeat)
			if err == nil {
				nc = fresh
			} else if errors.Is(err, errFenced) {
				return
			}
		}
	}
}

// hostedJob is what a worker hosts: the columnar job of package cc or
// pagerank — the one the in-process path runs — restricted to the
// partitions this worker owns. The worker moves its inputs and outputs
// and sequences its attempts; what a label or a rank is stays behind
// this interface.
type hostedJob interface {
	// Step runs one superstep attempt: fold the incoming exchange
	// columns (unless prime), then expand the new state.
	Step(prime bool, dangling float64, remote []exec.HostedCols) (exec.HostedOut, error)
	// Commit makes the attempt held the committed state; Abort returns
	// to the state before it. Both are no-ops without one.
	Commit()
	Abort()
	// AppendPartition appends partition p's committed state view.
	AppendPartition(dst []byte, p int) []byte
	// RestorePartition replaces partition p's state from such a view,
	// all of it or none.
	RestorePartition(p int, view []byte) error
	// Reinit puts the listed partitions into superstep-zero state.
	Reinit(parts []int)
	// Compensate runs this host's share of the job's compensation
	// function on the committed state (see CompensateReq).
	Compensate(lost, fill []int, surviving float64) (out exec.HostedOut, mass float64, err error)
}

// newHosted builds the hosted job of the given kind over g for the
// listed partitions.
func newHosted(kind string, g *graph.Graph, nparts int, damping float64, parts []int) (hostedJob, error) {
	switch kind {
	case KindCC:
		return cc.NewHosted(g, nparts, parts), nil
	case KindPageRank:
		return pagerank.NewHosted(g, nparts, damping, parts), nil
	}
	return nil, fmt.Errorf("unknown algorithm kind %q", kind)
}

// workerHost is the daemon's state machine: the hosted job and the
// idempotence cache. Only the ctrl loop touches it, one request at a
// time.
type workerHost struct {
	worker int

	// spec is the last LoadReq minus its columns: what the hosted job
	// was built from, Hosted being its partitions.
	spec LoadReq
	job  hostedJob
	// lastStep is the superstep of the last attempt run (-1 before the
	// first), held whether it is still uncommitted.
	lastStep int
	held     bool

	// Idempotence cache: the last applied request token and its
	// response. Ctrl RPCs are serialized, so depth one is exact — a
	// duplicate delivery (network dup, or a retry whose original did
	// arrive) carries the current token and is answered from here
	// without re-applying. A cached StepResp aliases the job's exchange
	// buffers, untouched until the next applied request.
	lastID   uint64
	lastResp any
	stats    WorkerStats

	// fetchResp answers every FetchReq, its views appended into
	// fetchBuf: both are reused, and the cached answer reads them until
	// the next fetch is applied.
	fetchResp FetchResp
	fetchBuf  []byte
}

// dispatch resolves one ctrl request against the idempotence cache:
// a token already applied is answered from the cache, anything else is
// handled and its response cached.
func (h *workerHost) dispatch(id uint64, req any) any {
	if id != 0 && id == h.lastID {
		h.stats.Replayed++
		return h.lastResp
	}
	resp := h.handle(req)
	h.stats.Handled++
	if id != 0 {
		h.lastID, h.lastResp = id, resp
	}
	return resp
}

// handle applies one ctrl request, always producing a response frame
// (ErrResp on failure — the daemon itself stays up).
func (h *workerHost) handle(req any) any {
	var err error
	switch r := req.(type) {
	case PingReq:
		return OKResp{}
	case StatsReq:
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st := h.stats
		st.AllocBytes, st.Mallocs, st.GCCycles = ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC)
		return st
	case LoadReq:
		err = h.load(r)
	case StepReq:
		// The attempt Commit names is committed first; this one stays held
		// until a later request names it.
		if err = h.commit("step", nil, r.Commit, &h.stats.CommitsCarried); err == nil {
			var out exec.HostedOut
			if out, err = h.job.Step(r.Rescatter, r.Dangling, r.Inbox); err == nil {
				h.lastStep, h.held = r.Superstep, true
				if r.Rescatter {
					h.stats.Rescatters++
				}
				return out
			}
		}
	case CommitReq:
		err = h.commit("commit", nil, Owed{Superstep: r.Superstep, Set: true}, &h.stats.CommitsExplicit)
	case AbortReq:
		if h.job != nil {
			h.job.Abort()
			h.held = false
		}
	case FetchReq:
		var resp *FetchResp
		if resp, err = h.fetch(r); err == nil {
			return resp
		}
	case RestoreReq:
		err = h.restore(r)
	case ClearReq:
		if err = h.hosts("clear", r.Parts); err == nil {
			h.job.Reinit(r.Parts)
		}
	case CompensateReq:
		var resp CompensateResp
		if resp, err = h.compensate(r); err == nil {
			return resp
		}
	default:
		err = fmt.Errorf("unexpected request %T", req)
	}
	if err != nil {
		return ErrResp{Msg: fmt.Sprintf("worker %d: %v", h.worker, err)}
	}
	return OKResp{}
}

// commit checks that op may run on parts (hosts) and applies the commit
// the request carries, or is: it must name the last attempt's superstep,
// or nothing is touched. A second delivery finds nothing held.
func (h *workerHost) commit(op string, parts []int, c Owed, count *uint64) error {
	if err := h.hosts(op, parts); err != nil || !c.Set {
		return err
	}
	if h.lastStep != c.Superstep {
		return fmt.Errorf("commit for superstep %d, last attempt was for %d", c.Superstep, h.lastStep)
	}
	if h.held {
		h.job.Commit()
		h.held = false
		*count++
	}
	return nil
}

// load rebuilds the hosted job over the request's partitions and CSR.
// Partitions not listed as fresh keep their committed state, so they
// must already be hosted here by the same job.
func (h *workerHost) load(r LoadReq) error {
	g, err := graph.FromCSR(r.IDs, r.Offsets, r.Targets, r.Weights)
	if err != nil {
		return err
	}
	for _, p := range r.Hosted {
		if p < 0 || p >= r.NumPartitions {
			return fmt.Errorf("load of partition %d of %d", p, r.NumPartitions)
		}
	}
	job, err := newHosted(r.Kind, g, r.NumPartitions, r.Damping, r.Hosted)
	if err != nil {
		return err
	}
	same := h.job != nil && h.spec.Job == r.Job && h.spec.Kind == r.Kind && h.spec.NumPartitions == r.NumPartitions
	for _, p := range r.Hosted {
		if slices.Contains(r.Fresh, p) {
			continue
		}
		if !same || !slices.Contains(h.spec.Hosted, p) {
			return fmt.Errorf("load keeps the state of partition %d, which job %s/%s/%d does not host here",
				p, r.Job, r.Kind, r.NumPartitions)
		}
		if err := job.RestorePartition(p, h.job.AppendPartition(nil, p)); err != nil {
			return err
		}
	}
	r.IDs, r.Offsets, r.Targets, r.Weights = nil, nil, nil, nil
	h.spec, h.job, h.lastStep, h.held = r, job, -1, false
	return nil
}

// hosts checks that a job is loaded and hosts every listed partition.
func (h *workerHost) hosts(op string, parts []int) error {
	if h.job == nil {
		return fmt.Errorf("%s before load", op)
	}
	for _, p := range parts {
		if !slices.Contains(h.spec.Hosted, p) {
			return fmt.Errorf("%s of partition %d, which is not hosted here", op, p)
		}
	}
	return nil
}

// compensate applies r.Commit and runs the job's share of a
// compensation. A request that does not fit what is hosted is refused
// before anything is touched, its commit included.
func (h *workerHost) compensate(r CompensateReq) (resp CompensateResp, err error) {
	for _, p := range r.Lost {
		if err == nil && (p < 0 || p >= h.spec.NumPartitions) {
			err = fmt.Errorf("compensate for partition %d of %d", p, h.spec.NumPartitions)
		}
	}
	if err == nil {
		err = h.commit("compensate", r.Fill, r.Commit, &h.stats.CommitsCarried)
	}
	if err != nil {
		return resp, err
	}
	out, mass, err := h.job.Compensate(r.Lost, r.Fill, r.Surviving)
	return CompensateResp{Remote: out.Remote, Messages: out.Messages, Dangling: out.Dangling, Surviving: mass}, err
}

// fetch applies r.Commit and reads the listed partitions' state views
// into h.fetchResp.
func (h *workerHost) fetch(r FetchReq) (*FetchResp, error) {
	if err := h.commit("fetch", r.Parts, r.Commit, &h.stats.CommitsCarried); err != nil {
		return nil, err
	}
	buf, parts := h.fetchBuf[:0], h.fetchResp.Parts[:0]
	for _, p := range r.Parts {
		start := len(buf)
		buf = h.job.AppendPartition(buf, p)
		parts = append(parts, PartBlob{Part: p, Data: buf[start:]})
	}
	// Appending may have moved the buffer: view the views' final place.
	for i, off := 0, 0; i < len(parts); i++ {
		n := len(parts[i].Data)
		parts[i].Data, off = buf[off:off+n:off+n], off+n
	}
	h.fetchBuf, h.fetchResp.Parts = buf, parts
	return &h.fetchResp, nil
}

// restore overwrites partition state from a snapshot or migration,
// dropping any attempt in flight.
func (h *workerHost) restore(r RestoreReq) error {
	for _, pb := range r.Parts {
		if err := h.hosts("restore", []int{pb.Part}); err != nil {
			return err
		}
		if err := h.job.RestorePartition(pb.Part, pb.Data); err != nil {
			return err
		}
	}
	return nil
}
