package proc

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	oexec "os/exec"
	"slices"
	"sort"
	"sync"
	"time"

	"optiflow/internal/clock"
	"optiflow/internal/cluster"
	"optiflow/internal/cluster/proc/netfault"
)

// Config parameterises a Coordinator.
type Config struct {
	// Workers is the initial worker-process count (>= 1).
	Workers int
	// Partitions is the state partition count (>= 1), assigned
	// round-robin like the in-process simulation.
	Partitions int
	// Cluster configures the membership the coordinator keeps, a
	// cluster.Cluster, exactly as for the simulation: cluster.WithSpares
	// bounds the spare pool (unlimited without it),
	// cluster.WithAcquireHook observes provisioning attempts — the hook
	// runs before the process is spawned — and cluster.WithEventCap
	// bounds the event log.
	Cluster []cluster.Option
	// Heartbeat is the worker beat interval (100ms if zero).
	Heartbeat time.Duration
	// LivenessWindow is how long a worker may go without a heartbeat
	// before it becomes suspect (2s if zero). Window math runs on
	// internal/clock so tests can drive it deterministically.
	LivenessWindow time.Duration
	// CallTimeout bounds each ctrl RPC attempt (10s if zero). A timed
	// out attempt is retried — see SuspicionGrace for the total budget.
	CallTimeout time.Duration
	// HandshakeTimeout bounds a connection's Hello exchange on both
	// ends (CallTimeout if zero).
	HandshakeTimeout time.Duration
	// SuspicionGrace is how long a suspect worker may stay on the
	// ladder — retrying RPCs, reconnecting broken connections, missing
	// beats — before it is condemned (2s if zero). It is also the total
	// retry budget of one ctrl RPC.
	SuspicionGrace time.Duration
	// RetryBackoff is the initial ctrl-RPC retry backoff, doubled per
	// attempt and capped at 8x (25ms if zero).
	RetryBackoff time.Duration
	// ReconnectGrace is how long a worker keeps redialing a broken
	// connection before giving up and exiting (4x SuspicionGrace if
	// zero — the worker must outlast the coordinator's ladder, so a
	// healed partition can rejoin right up to the condemn verdict).
	ReconnectGrace time.Duration
	// StragglerFactor condemns a worker whose superstep RPC runs this
	// many times longer than the majority's (6 if zero; negative
	// disables straggler detection).
	StragglerFactor float64
	// StragglerMin is the floor on any straggler deadline, so fast
	// supersteps do not condemn on scheduling jitter (2s if zero).
	StragglerMin time.Duration
	// SpawnTimeout bounds process start + handshake (15s if zero).
	SpawnTimeout time.Duration
	// NetFault, when set, routes every worker connection through the
	// fault-injecting network layer.
	NetFault *netfault.Network
	// LeaveZombies makes Fail skip the SIGKILL: membership is updated
	// and our connection ends are closed, but the worker process stays
	// alive — modelling a partitioned node the coordinator cannot
	// reach, whose later reappearance must be fenced.
	LeaveZombies bool
	// Spawn overrides how worker processes are started (tests). The
	// default re-executes the current binary with the worker
	// environment set; the entry point must call MaybeChildMode.
	Spawn func(id int, env []string) (*oexec.Cmd, error)
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.LivenessWindow <= 0 {
		c.LivenessWindow = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = c.CallTimeout
	}
	if c.SuspicionGrace <= 0 {
		c.SuspicionGrace = 2 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.ReconnectGrace <= 0 {
		c.ReconnectGrace = 4 * c.SuspicionGrace
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 6
	}
	if c.StragglerMin <= 0 {
		c.StragglerMin = 2 * time.Second
	}
	if c.SpawnTimeout <= 0 {
		c.SpawnTimeout = 15 * time.Second
	}
	return c
}

// transportError marks an RPC failure of the transport itself —
// timeouts and broken connections that outlived the retry budget — as
// opposed to an ErrResp the worker answered. Only transport failures
// feed the suspicion ladder; an application rejection proves the worker
// is alive.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransportError reports whether err came from the transport layer.
// A nil err returns before the target of errors.As, which escapes, is
// allocated: every call asks.
func isTransportError(err error) bool {
	if err == nil {
		return false
	}
	var te *transportError
	return errors.As(err, &te)
}

// rpcConn is one serialized request/response connection. A one-slot
// semaphore admits one in-flight RPC at a time (a semaphore rather
// than a mutex, because a call legitimately blocks — waiting out a
// retry backoff or a worker redial — while holding its turn). Every
// call gets a fresh idempotence token; a timed-out attempt is retried
// with the SAME token and capped backoff (safe: the worker answers
// duplicates from its idempotence cache, and stale responses are
// discarded by token), while a broken connection waits for the worker
// to redial and resume — the swap installed by the coordinator's
// accept path.
type rpcConn struct {
	sem chan struct{} // one-slot: serializes RPCs; holder owns nextID

	cmu     sync.Mutex // guards nc and swapped
	nc      net.Conn
	swapped chan struct{} // closed when nc is replaced by a reconnect

	timeout time.Duration   // per-attempt deadline
	backoff time.Duration   // initial retry backoff
	grace   time.Duration   // total retry budget
	gone    <-chan struct{} // closed when the worker is condemned/reaped
	onRetry func()          // observability hook, called per extra attempt

	// Held with the semaphore: the next token, and the buffer every
	// frame of a call is assembled and received in.
	nextID uint64
	buf    []byte
}

// conn snapshots the current connection and its swap signal.
func (r *rpcConn) conn() (net.Conn, chan struct{}) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	return r.nc, r.swapped
}

// swap installs a reconnected connection, waking any call waiting for
// one. The old connection is closed.
func (r *rpcConn) swap(nc net.Conn) {
	r.cmu.Lock()
	old := r.nc
	r.nc = nc
	close(r.swapped)
	r.swapped = make(chan struct{})
	r.cmu.Unlock()
	if old != nil {
		old.Close()
	}
}

// close closes the current connection (condemn, teardown).
func (r *rpcConn) close() {
	r.cmu.Lock()
	nc := r.nc
	r.cmu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// attempt performs one request/response exchange for token id. Frames
// with a different token are stale responses from earlier attempts (or
// network duplicates) and are discarded.
func (r *rpcConn) attempt(nc net.Conn, id uint64, req any, into *relay) (any, error) {
	nc.SetDeadline(time.Now().Add(r.timeout))
	if err := writeFrameFrom(nc, &r.buf, id, req); err != nil {
		return nil, err
	}
	arena, resp := into.target()
	for {
		rid, m, err := readFrameInto(nc, &r.buf, arena, resp)
		if err != nil {
			return nil, err
		}
		if rid != id {
			continue
		}
		return m, nil
	}
}

// call performs one RPC; a StepResp decodes into into (see relay), nil
// allocating it.
func (r *rpcConn) call(req any, into *relay) (any, error) {
	select {
	case r.sem <- struct{}{}:
	case <-r.gone:
		return nil, &transportError{err: errors.New("proc: worker gone")}
	}
	defer func() { <-r.sem }()
	r.nextID++
	id := r.nextID
	deadline := time.Now().Add(r.grace)
	backoff := r.backoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 && r.onRetry != nil {
			r.onRetry()
		}
		nc, swapped := r.conn()
		resp, err := r.attempt(nc, id, req, into)
		if err == nil {
			if e, ok := resp.(ErrResp); ok {
				return nil, errors.New("proc: " + e.Msg)
			}
			return resp, nil
		}
		if time.Now().After(deadline) {
			return nil, &transportError{err: fmt.Errorf("proc: %T retries exhausted after %v: %w", req, r.grace, err)}
		}
		if isTimeout(err) {
			// The request or its response may have been lost in flight;
			// the framed protocol keeps the stream aligned, so retry the
			// same token on the same connection after a backoff.
			if !r.wait(backoff, swapped) {
				return nil, &transportError{err: fmt.Errorf("proc: worker gone: %w", err)}
			}
			if backoff < 8*r.backoff {
				backoff *= 2
			}
			continue
		}
		// Hard transport error: the connection is dead. Close our end
		// and wait for the worker to redial within the grace budget.
		nc.Close()
		select {
		case <-swapped:
		case <-r.gone:
			return nil, &transportError{err: fmt.Errorf("proc: worker gone: %w", err)}
		case <-time.After(time.Until(deadline)):
			return nil, &transportError{err: fmt.Errorf("proc: no reconnect within %v: %w", r.grace, err)}
		}
	}
}

// wait sleeps for the backoff, returning early (true) on a reconnect
// swap and aborting (false) when the worker is gone.
func (r *rpcConn) wait(d time.Duration, swapped chan struct{}) bool {
	select {
	case <-time.After(d):
		return true
	case <-swapped:
		return true
	case <-r.gone:
		return false
	}
}

// relay is the memory one worker process's StepResps decode into, owned
// by its workerProc: it outlives any one job and dies with the process.
// Two arena generations hold exchange column bytes (see recycle):
// arenas[gen] the last committed attempt's, which the holding job's
// inbox views, and the other the next attempt's. resp is the last
// response decoded; the inbox copies its column headers, so their
// memory is reused too. Only the process's serveSteps goroutine decodes
// into it, and the holding job reads resp and flips gen
// (Coordinator.owe) only after that goroutine answered.
type relay struct {
	arenas [2][]byte
	gen    int
	resp   StepResp
}

// target returns where the next StepResp decodes: the generation not
// holding committed columns, and resp. A nil relay decodes into fresh
// memory.
func (rl *relay) target() (*[]byte, *StepResp) {
	if rl == nil {
		return nil, nil
	}
	return &rl.arenas[1-rl.gen], &rl.resp
}

// workerProc is the coordinator's handle on one worker process. All
// fields below relay are guarded by the coordinator's mutex.
type workerProc struct {
	id  int
	cmd *oexec.Cmd
	// steps hands the worker's stepper goroutine (serveSteps) one
	// superstep call at a time; relay is where its answers decode.
	steps chan *stepCall
	relay relay

	ctrl *rpcConn
	beat net.Conn

	gone      chan struct{} // closed when the worker leaves (condemn/fail/reap)
	reaped    bool          // process exited (observed by the reaper)
	condemned bool          // the suspicion ladder's final verdict; sticky
	suspectAt time.Time     // when the worker became suspect; zero = trusted
	owed      Owed          // superstep decided committed, not yet told to the worker
}

// markGoneLocked closes the gone channel once, aborting any RPC waiting
// on a reconnect. Callers hold the coordinator's mutex.
func (p *workerProc) markGoneLocked() {
	select {
	case <-p.gone:
	default:
		close(p.gone)
	}
}

// closeConns closes our ends of the worker's connections. Callers hold
// the coordinator's mutex (conn fields are swapped under it).
func (p *workerProc) closeConns() {
	if p.ctrl != nil {
		p.ctrl.close()
	}
	if p.beat != nil {
		p.beat.Close()
	}
}

// kill SIGKILLs the process and closes our connection ends. Callers
// hold the coordinator's mutex. Safe to call repeatedly and on
// already-exited processes.
func (p *workerProc) kill() {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.closeConns()
}

// goneLocked reports whether the worker has left. Callers hold the
// coordinator's mutex.
func (p *workerProc) goneLocked() bool {
	select {
	case <-p.gone:
		return true
	default:
		return false
	}
}

// standby is a worker process spawned ahead of need — handshaken and
// beating, but outside membership until AcquireN adopts it. Its ID is
// reserved when the spawn starts; p is set (nil if the spawn failed)
// before ready closes.
type standby struct {
	id    int
	ready chan struct{}
	p     *workerProc
}

type connKey struct {
	worker int
	role   string
}

// Coordinator is the multi-process cluster backend: it spawns worker
// daemons as real OS processes, detects their failures and implements
// cluster.Interface on the in-process simulation's own membership — one
// cluster.Cluster, guarded by mu, keeps the workers, the partition
// owners, the spare pool and the event log. What the coordinator adds
// are processes: Fail fences and SIGKILLs, AcquireN adopts the warm
// standby or spawns a process between an attempt and its admission,
// Release migrates the leaving worker's state between its check and
// its application, and the job holding the relay loads adopted
// partitions. Spawns, partition loads, state fetches and RPCs run
// between the Cluster's steps, never under mu.
//
// Failure detection is a suspicion ladder, not a binary verdict: a
// broken connection or missed liveness window makes a worker suspect,
// opening a grace window in which the worker may redial and resume
// (ctrl RPCs retry with idempotence tokens, the beat stream
// re-attaches); only when the grace expires — or the process is reaped,
// or RPC retries are exhausted, or the worker straggles a superstep —
// is it condemned. Condemnation is sticky and fences the worker: its
// connections are closed and any later handshake from the zombie is
// rejected, so a partition that heals after recovery cannot double-
// apply state.
//
// Membership-mutating methods (Fail, Acquire*, Release, AssignOrphans,
// AddSpares, Note) are driven by a single caller — the iteration loop
// or the recovery supervisor — matching how the simulation is used.
// Internal goroutines (accept loop, heartbeat readers, reapers, the
// standby's spawn) only read membership and touch detection state —
// appending its suspect and condemn events to the log — under the same
// mutex.
// While the spare pool is not empty, AcquireN adopts a warm standby
// (see standby) instead of spawning a process at failure time.
type Coordinator struct {
	cfg   Config
	ln    net.Listener
	addr  string
	token string

	mu       sync.Mutex
	cl       *cluster.Cluster // membership: workers, owners, spares, events
	procs    map[int]*workerProc
	waiters  map[connKey]chan net.Conn // handshaken conns awaited by a spawn
	beats    *liveness
	holder   *Job // the last NewJob's: the one job that holds the relay
	closed   bool
	standby  *standby      // nil when none is kept
	children []*workerProc // every process spawned, for Close to kill
	done     chan struct{} // closed by Close: aborts spawns in flight

	// bg counts spawns in flight, reapers and steppers; Close waits for
	// them, so every process spawned has been reaped when it returns.
	bg sync.WaitGroup

	// scratch is the holder's superstep working memory, used by its Step
	// alone and kept for the next job.
	scratch stepScratch

	statRetries    int
	statReconnects int
	statSuspected  int
	statCondemned  int
	statFenced     int
}

var (
	_ cluster.Interface   = (*Coordinator)(nil)
	_ cluster.NetReporter = (*Coordinator)(nil)
)

// Start listens, spawns the initial worker processes concurrently and
// returns the ready Coordinator, with the warm standby's spawn left
// running in the background. On any failure everything spawned so far
// is torn down.
func Start(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("proc: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("proc: need at least one partition, got %d", cfg.Partitions)
	}
	tok := make([]byte, 16)
	if _, err := rand.Read(tok); err != nil {
		return nil, fmt.Errorf("proc: token: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proc: listen: %v", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		addr:    ln.Addr().String(),
		token:   hex.EncodeToString(tok),
		cl:      cluster.New(cfg.Workers, cfg.Partitions, cfg.Cluster...),
		procs:   make(map[int]*workerProc),
		waiters: make(map[connKey]chan net.Conn),
		beats:   newLiveness(cfg.LivenessWindow),
		done:    make(chan struct{}),
	}
	go c.acceptLoop()
	procs := make([]*workerProc, cfg.Workers)
	initial := make(map[int][]int, cfg.Workers)
	for w := range procs {
		initial[w] = nil
	}
	if err := onOwners(initial, func(w int, _ []int) (err error) {
		procs[w], err = c.spawnWorker(w)
		return err
	}); err != nil {
		c.Close()
		return nil, fmt.Errorf("proc: starting %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for w, p := range procs {
		c.admitLocked(w, p)
	}
	c.keepStandbyLocked()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.addr }

// Close tears the deployment down: every worker process — members,
// the standby, spawns still in flight — is killed and reaped before it
// returns, and the listener is closed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	for _, p := range c.children {
		p.markGoneLocked()
		p.kill()
	}
	c.mu.Unlock()
	err := c.ln.Close()
	c.bg.Wait()
	// Every process is reaped and every stepper has returned: let go of
	// their handles, and with them of their relays and frame buffers,
	// which a caller keeping the closed Coordinator would keep too.
	c.mu.Lock()
	c.children, c.standby = nil, nil
	clear(c.procs)
	c.mu.Unlock()
	return err
}

// keepStandbyLocked starts spawning a warm standby in the background,
// unless one is kept already, the spare pool is empty or the
// coordinator is closed. Callers hold c.mu. It runs only at job
// boundaries: replacing an adopted standby at once made the spawn
// compete with the recovery for the same CPUs.
func (c *Coordinator) keepStandbyLocked() {
	if c.standby != nil || c.cl.Spares() == 0 || c.closed {
		return
	}
	s := &standby{id: c.cl.Reserve(), ready: make(chan struct{})}
	c.standby = s
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		p, _ := c.spawnWorker(s.id)
		c.mu.Lock()
		s.p = p
		c.mu.Unlock()
		close(s.ready)
	}()
}

// takeStandby hands over the warm standby for adoption, waiting for its
// spawn if that is still in flight — adopting is never slower than
// spawning cold. It returns nil when none is kept, or when the one kept
// died idle (reaped, its beat stream broken, or its beats overdue): that
// one is killed and discarded, and the caller spawns cold.
func (c *Coordinator) takeStandby() *standby {
	c.mu.Lock()
	s := c.standby
	c.standby = nil
	c.mu.Unlock()
	if s == nil {
		return nil
	}
	<-s.ready
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.p == nil {
		return nil
	}
	if s.p.goneLocked() || c.beats.overdue(s.id, clock.Now()) {
		s.p.markGoneLocked()
		s.p.kill()
		c.beats.forget(s.id)
		return nil
	}
	return s
}

// acceptLoop admits handshaking connections until the listener closes.
func (c *Coordinator) acceptLoop() {
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handleConn(nc)
	}
}

// wrapConn routes a handshaken connection through the fault-injecting
// network layer, when one is configured.
func (c *Coordinator) wrapConn(w int, nc net.Conn) net.Conn {
	if c.cfg.NetFault == nil {
		return nc
	}
	return c.cfg.NetFault.Wrap(w, nc)
}

// handleConn disposes of one incoming connection: validate its Hello,
// then either deliver it to the spawner waiting for that (worker, role)
// pair, re-attach it to a live worker (reconnect), or fence it — a
// handshake from a condemned or replaced worker is rejected so a zombie
// cannot write into the job. A Hello that does not decode — a stale
// binary's, whose frame version is not ours (*VersionError) — closes
// the connection unanswered.
func (c *Coordinator) handleConn(nc net.Conn) {
	nc.SetDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	_, m, err := readFrame(nc, nil)
	if err != nil {
		nc.Close()
		return
	}
	hello, ok := m.(Hello)
	if !ok || hello.Token != c.token || (hello.Conn != ConnCtrl && hello.Conn != ConnBeat) {
		writeFrame(nc, 0, ErrResp{Msg: "handshake rejected"})
		nc.Close()
		return
	}
	if c.cfg.NetFault != nil && !c.cfg.NetFault.AdmitDial(hello.Worker) {
		// A partitioned worker's dial never reaches us; model that by
		// dropping the connection with no acknowledgement.
		nc.Close()
		return
	}

	if ch := c.takeWaiter(connKey{worker: hello.Worker, role: hello.Conn}); ch != nil {
		// A spawner is waiting for this connection: first contact.
		if err := writeFrame(nc, 0, HelloOK{}); err != nil {
			nc.Close()
			return
		}
		nc.SetDeadline(time.Time{})
		wrapped := c.wrapConn(hello.Worker, nc)
		select {
		case ch <- wrapped:
		default:
			wrapped.Close()
		}
		return
	}

	// No spawner: a reconnect from a live worker, or a zombie.
	c.mu.Lock()
	p := c.procs[hello.Worker]
	admit := p != nil && c.cl.IsAlive(hello.Worker) && !p.condemned && !c.closed
	if !admit {
		c.statFenced++
	}
	c.mu.Unlock()
	if !admit {
		writeFrame(nc, 0, ErrResp{Msg: "fenced: worker is no longer a member"})
		nc.Close()
		return
	}
	if err := writeFrame(nc, 0, HelloOK{}); err != nil {
		nc.Close()
		return
	}
	nc.SetDeadline(time.Time{})
	c.attach(p, hello.Conn, c.wrapConn(hello.Worker, nc))
}

// attach installs a reconnected connection on a live worker, clearing
// its suspicion: the worker proved it is reachable again. Rechecks the
// fencing condition under the lock — the verdict may have landed since
// handleConn's admission check.
func (c *Coordinator) attach(p *workerProc, role string, nc net.Conn) {
	c.mu.Lock()
	if p.condemned || !c.cl.IsAlive(p.id) || c.closed {
		c.statFenced++
		c.mu.Unlock()
		nc.Close()
		return
	}
	if role == ConnCtrl {
		p.ctrl.swap(nc)
	} else {
		old := p.beat
		p.beat = nc
		go c.readBeats(p, nc)
		if old != nil {
			old.Close()
		}
	}
	p.suspectAt = time.Time{}
	c.beats.beat(p.id, clock.Now())
	c.statReconnects++
	c.mu.Unlock()
}

func (c *Coordinator) addWaiter(k connKey) chan net.Conn {
	ch := make(chan net.Conn, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiters[k] = ch
	return ch
}

func (c *Coordinator) takeWaiter(k connKey) chan net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.waiters[k]
	delete(c.waiters, k)
	return ch
}

// dropWaiter abandons a pending waiter: a handshake that arrives for it
// later finds no spawner.
func (c *Coordinator) dropWaiter(k connKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.waiters, k)
}

// spawnWorker starts worker process w and waits for its ctrl and beat
// connections to handshake. It does not touch membership — the caller
// admits the worker once spawn succeeds. A spawn that Close overtakes
// kills and reaps its child and fails.
func (c *Coordinator) spawnWorker(w int) (*workerProc, error) {
	errClosed := fmt.Errorf("worker %d: coordinator closed", w)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	c.bg.Add(1)
	c.mu.Unlock()
	defer c.bg.Done()

	ctrlKey, beatKey := connKey{worker: w, role: ConnCtrl}, connKey{worker: w, role: ConnBeat}
	ctrlCh, beatCh := c.addWaiter(ctrlKey), c.addWaiter(beatKey)
	cleanup := func() {
		c.dropWaiter(ctrlKey)
		c.dropWaiter(beatKey)
	}

	env := workerEnv(c.addr, w, c.token, c.cfg)
	var cmd *oexec.Cmd
	var err error
	if c.cfg.Spawn != nil {
		cmd, err = c.cfg.Spawn(w, env)
	} else {
		cmd, err = reexecCommand(env)
	}
	if err != nil {
		cleanup()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		cleanup()
		return nil, fmt.Errorf("starting process: %v", err)
	}

	var ctrl, beat net.Conn
	abort := func(err error) (*workerProc, error) {
		cleanup()
		for _, nc := range []net.Conn{ctrl, beat} {
			if nc != nil {
				nc.Close()
			}
		}
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}
	timer := time.NewTimer(c.cfg.SpawnTimeout)
	defer timer.Stop()
	for ctrl == nil || beat == nil {
		select {
		case ctrl = <-ctrlCh:
		case beat = <-beatCh:
		case <-timer.C:
			return abort(fmt.Errorf("worker %d did not handshake within %v", w, c.cfg.SpawnTimeout))
		case <-c.done:
			return abort(errClosed)
		}
	}

	p := &workerProc{
		id:    w,
		cmd:   cmd,
		steps: make(chan *stepCall),
		beat:  beat,
		gone:  make(chan struct{}),
	}
	p.ctrl = &rpcConn{
		sem:     make(chan struct{}, 1),
		nc:      ctrl,
		swapped: make(chan struct{}),
		timeout: c.cfg.CallTimeout,
		backoff: c.cfg.RetryBackoff,
		grace:   c.cfg.SuspicionGrace,
		gone:    p.gone,
		onRetry: func() {
			c.mu.Lock()
			c.statRetries++
			c.mu.Unlock()
		},
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return abort(errClosed)
	}
	c.children = append(c.children, p)
	c.beats.track(w, clock.Now())
	c.bg.Add(2)
	c.mu.Unlock()
	go c.reap(p)
	go c.serveSteps(p)
	go c.readBeats(p, p.beat)
	return p, nil
}

// reexecCommand builds the default spawn command: the current binary
// re-executed in worker child mode.
func reexecCommand(env []string) (*oexec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %v", err)
	}
	cmd := oexec.Command(self)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// admitLocked hands worker w's spawned process to the coordinator and
// starts its liveness window; membership admits w separately. Callers
// hold c.mu.
func (c *Coordinator) admitLocked(w int, p *workerProc) {
	c.procs[w] = p
	c.beats.track(w, clock.Now())
}

// reap observes the worker process's exit — the fast detection path for
// a SIGKILL, which skips the suspicion grace entirely: a reaped process
// cannot come back.
func (c *Coordinator) reap(p *workerProc) {
	defer c.bg.Done()
	p.cmd.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	p.reaped = true
	p.markGoneLocked()
	if c.cl.IsAlive(p.id) && !c.closed {
		c.condemnLocked(p, "process exited")
	}
}

// readBeats consumes the worker's heartbeat stream. A broken stream
// only makes a member suspect (it may redial); a fresh beat clears
// suspicion. A standby is no member — its redial would be fenced — so
// a broken stream marks it gone, to be discarded at adoption.
func (c *Coordinator) readBeats(p *workerProc, nc net.Conn) {
	for {
		_, m, err := readFrame(nc, nil)
		if err != nil {
			c.mu.Lock()
			// Only suspect if this stream is still the worker's current
			// one — a reconnect swap closes the old stream on purpose.
			if p.beat == nc && !p.condemned && c.cl.IsAlive(p.id) && !c.closed {
				c.suspectLocked(p, clock.Now(), "beat stream broken")
			} else if c.standby != nil && c.standby.p == p {
				p.markGoneLocked()
			}
			c.mu.Unlock()
			return
		}
		if hb, ok := m.(Heartbeat); ok && hb.Worker == p.id {
			c.mu.Lock()
			if p.beat == nc {
				c.beats.beat(p.id, clock.Now())
				if !p.condemned {
					p.suspectAt = time.Time{}
				}
			}
			c.mu.Unlock()
		}
	}
}

// suspectLocked puts a worker on the first rung of the ladder: a grace
// window starting at `since` in which it may prove itself alive again.
// Callers hold c.mu.
func (c *Coordinator) suspectLocked(p *workerProc, since time.Time, why string) {
	if p.condemned || !p.suspectAt.IsZero() {
		return
	}
	p.suspectAt = since
	c.statSuspected++
	c.cl.NoteWorker(cluster.EventSuspect, p.id, why)
}

// condemnLocked is the ladder's final verdict: the worker is declared
// failed, its connections are closed, pending RPCs abort, and any later
// handshake from it is fenced. Sticky. Callers hold c.mu.
func (c *Coordinator) condemnLocked(p *workerProc, why string) {
	if p.condemned {
		return
	}
	if p.suspectAt.IsZero() {
		// Condemning implies suspicion; count the rung it skipped.
		c.statSuspected++
	}
	p.condemned = true
	c.statCondemned++
	p.markGoneLocked()
	p.closeConns()
	c.cl.NoteWorker(cluster.EventCondemn, p.id, why)
}

// condemn is the unlocked form, used by the RPC layer (retry budget
// exhausted) and the straggler watchdog.
func (c *Coordinator) condemn(w int, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.cl.IsAlive(w) {
		return
	}
	if p := c.procs[w]; p != nil {
		c.condemnLocked(p, why)
	}
}

// NumPartitions implements cluster.Interface.
func (c *Coordinator) NumPartitions() int { return c.cl.NumPartitions() }

// Workers implements cluster.Interface.
func (c *Coordinator) Workers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.Workers()
}

// Owner implements cluster.Interface.
func (c *Coordinator) Owner(p int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.Owner(p)
}

// PartitionsOf implements cluster.Interface.
func (c *Coordinator) PartitionsOf(w int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.PartitionsOf(w)
}

// IsAlive implements cluster.Interface.
func (c *Coordinator) IsAlive(w int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.IsAlive(w)
}

// Spares implements cluster.Interface.
func (c *Coordinator) Spares() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.Spares()
}

// AddSpares implements cluster.Interface.
func (c *Coordinator) AddSpares(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cl.AddSpares(n)
}

// NetStats implements cluster.NetReporter.
func (c *Coordinator) NetStats() cluster.NetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cluster.NetStats{
		RPCRetries: c.statRetries,
		Reconnects: c.statReconnects,
		Suspected:  c.statSuspected,
		Condemned:  c.statCondemned,
		Fenced:     c.statFenced,
	}
}

// Fail implements cluster.Interface: it fences the worker and
// SIGKILLs its process, then fails it in membership, returning the
// partitions it owned. Under LeaveZombies the SIGKILL is skipped — the
// process stays alive but fenced, modelling a node the coordinator
// cannot reach.
func (c *Coordinator) Fail(w int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cl.IsAlive(w) {
		return nil
	}
	c.beats.forget(w)
	if p := c.procs[w]; p != nil {
		// Fence before any teardown: a redial from this worker must be
		// rejected even if the process outlives us. Already condemned by
		// the ladder or the reaper, it is not counted again.
		c.condemnLocked(p, "failed by the driver")
		if !c.cfg.LeaveZombies {
			p.kill()
		}
	}
	return c.cl.Fail(w)
}

// Kill SIGKILLs worker w's process WITHOUT updating membership — the
// chaos injector's raw crash. The coordinator's detection (reaper,
// suspicion ladder) notices, and the iteration driver's failure path
// performs the bookkeeping via Fail.
func (c *Coordinator) Kill(w int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.procs[w]
	if p == nil || !c.cl.IsAlive(w) {
		return false
	}
	p.kill()
	return true
}

// DetectedFailures returns the subset of the given live workers the
// suspicion ladder has condemned. It also advances the ladder: workers
// whose liveness window lapsed become suspect, and suspects whose grace
// expired are condemned here.
func (c *Coordinator) DetectedFailures(alive []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := clock.Now()
	var out []int
	for _, w := range alive {
		if !c.cl.IsAlive(w) {
			continue
		}
		p := c.procs[w]
		if p == nil {
			continue
		}
		if !p.condemned {
			if since, over := c.beats.overdueSince(w, now); over {
				c.suspectLocked(p, since, "heartbeats overdue")
			}
		}
		if !p.condemned && !p.suspectAt.IsZero() && now.Sub(p.suspectAt) > c.cfg.SuspicionGrace {
			c.condemnLocked(p, fmt.Sprintf("suspicion grace %v expired", c.cfg.SuspicionGrace))
		}
		if p.condemned {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// Acquire implements cluster.Interface.
func (c *Coordinator) Acquire() (int, []int) {
	ws, ad, _ := c.AcquireN(1)
	if len(ws) == 0 {
		return -1, nil
	}
	return ws[0], ad[0]
}

// AcquireN implements cluster.Interface on cluster.Cluster's steps: a
// granted attempt adopts the warm standby or spawns a process cold
// before membership admits it, the orphans are spread over the new
// workers as the simulation spreads them, and the job holding the relay
// hands each new worker its partitions' data.
func (c *Coordinator) AcquireN(n int) (workers []int, adopted [][]int, err error) {
	c.mu.Lock()
	grant := c.cl.Grant(n)
	c.mu.Unlock()

	var got []cluster.Acquired
	for range grant {
		s := c.takeStandby()
		reserved := -1
		if s != nil {
			reserved = s.id
		}
		c.mu.Lock()
		w, provision := c.cl.Attempt(reserved)
		c.mu.Unlock()
		lat, perr := provision()
		var p *workerProc
		how := "warm standby"
		if perr == nil && s != nil {
			p = s.p
		} else if perr == nil {
			p, perr = c.spawnWorker(w)
			how = "cold spawn"
		}
		c.mu.Lock()
		if perr != nil {
			if s != nil && c.standby == nil {
				c.standby = s // still warm: the next attempt adopts it
			}
			err = c.cl.AcquireFailed(w, perr)
			c.mu.Unlock()
			break
		}
		c.cl.Admit(w)
		c.admitLocked(w, p)
		c.mu.Unlock()
		got = append(got, cluster.Acquired{Worker: w, Latency: lat, Detail: how})
	}

	c.mu.Lock()
	workers, adopted = c.cl.AdoptOrphans(got)
	job := c.holder
	c.mu.Unlock()

	if job != nil {
		for i, w := range workers {
			if len(adopted[i]) == 0 {
				continue
			}
			if loadErr := job.loadPartitions(w, adopted[i]); loadErr != nil && err == nil {
				err = fmt.Errorf("cluster: loading partitions onto worker %d: %w", w, loadErr)
			}
		}
	}
	return workers, adopted, err
}

// Release implements cluster.Interface on cluster.Cluster's steps, so
// it rejects what the simulation rejects. With a job attached, the
// leaving worker's partition state is fetched between the check and
// the release, and restored onto the surviving owners after it — no
// state is lost, unlike Fail.
func (c *Coordinator) Release(w int) error {
	c.mu.Lock()
	moved, err := c.cl.CheckRelease(w)
	job, p := c.holder, c.procs[w]
	c.mu.Unlock()
	if err != nil {
		return err
	}

	// Migrate state off the leaving worker before it goes away.
	var fetched map[int]PartBlob
	if job != nil && len(moved) > 0 && p != nil {
		parts, err := c.fetchState(w, moved)
		if err != nil {
			return &cluster.ReleaseError{Worker: w, Reason: fmt.Errorf("migrating state: %v", err)}
		}
		fetched = make(map[int]PartBlob, len(parts))
		for _, ps := range parts {
			fetched[ps.Part] = ps
		}
	}

	c.mu.Lock()
	perOwner := c.cl.ApplyRelease(w)
	delete(c.procs, w)
	c.beats.forget(w)
	c.mu.Unlock()

	if job != nil {
		// Push the migrated state to each adopting survivor concurrently,
		// each over its own ctrl conn.
		err := onOwners(perOwner, func(o int, parts []int) error {
			if err := job.loadPartitions(o, parts); err != nil {
				return fmt.Errorf("loading partitions: %v", err)
			}
			restore := make([]PartBlob, 0, len(parts))
			for _, part := range parts {
				restore = append(restore, fetched[part])
			}
			return c.restoreState(o, restore)
		})
		if err != nil {
			return fmt.Errorf("proc: releasing worker %d: moving state to %v", w, err)
		}
	}
	if p != nil {
		// Nothing is owed here: the migration fetch carried w's debt.
		p.ctrl.call(ShutdownReq{}, nil)
		c.mu.Lock()
		p.markGoneLocked()
		p.kill()
		c.mu.Unlock()
	}
	return nil
}

// Orphaned implements cluster.Interface.
func (c *Coordinator) Orphaned() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.Orphaned()
}

// AssignOrphans implements cluster.Interface: degraded-mode
// repartitioning across survivors, loading the adopted partitions'
// data onto their new owners through the job holding the relay (the state
// itself is lost with the dead owner — recovery restores or
// compensates it afterwards).
func (c *Coordinator) AssignOrphans() (map[int][]int, error) {
	c.mu.Lock()
	moved, err := c.cl.AssignOrphans()
	ws, job := c.cl.Workers(), c.holder
	c.mu.Unlock()
	if err != nil || job == nil {
		return moved, err
	}
	for _, w := range ws {
		if parts := moved[w]; len(parts) > 0 {
			if err := job.loadPartitions(w, parts); err != nil {
				return moved, fmt.Errorf("cluster: loading orphaned partitions onto worker %d: %v", w, err)
			}
		}
	}
	return moved, nil
}

// Note implements cluster.Interface.
func (c *Coordinator) Note(kind cluster.EventKind, detail string, partitions []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cl.Note(kind, detail, partitions)
}

// Events implements cluster.Interface.
func (c *Coordinator) Events() []cluster.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.cl.Events())
}

// DroppedEvents implements cluster.Interface.
func (c *Coordinator) DroppedEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cl.DroppedEvents()
}

// hold makes j the job that holds the relay — the workers' relay arenas
// and the superstep scratch — from now on, and the one whose
// loadPartitions runs (outside the coordinator's lock) whenever
// partitions move to a worker that may not host their data yet. The
// job it replaces may no longer step (see SupersededError). A new job
// is a job boundary: a standby adopted under the last one is replaced
// here.
func (c *Coordinator) hold(j *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.holder = j
	c.keepStandbyLocked()
}

// holds reports whether j still holds the relay.
func (c *Coordinator) holds(j *Job) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.holder == j
}

// owe records the driver's decision that the superstep committed —
// every worker answered its StepReq — as a debt to each: none has been
// told. The debt lives on the worker's handle, so it survives a reconnect
// and dies with a condemned worker; whatever call sends next pays it.
// The committed answer's columns now live in the generation it decoded
// into, so each relay flips to it.
func (c *Coordinator) owe(workers []int, superstep int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range workers {
		if p := c.procs[w]; p != nil {
			p.owed = Owed{Superstep: superstep, Set: true}
			p.relay.gen = 1 - p.relay.gen
		}
	}
}

// settle pays a debt with a CommitReq of its own, ahead of a request
// that cannot carry it.
func (p *workerProc) settle(owed Owed) error {
	if !owed.Set {
		return nil
	}
	_, err := p.ctrl.call(CommitReq{Superstep: owed.Superstep}, nil)
	return err
}

// call performs one ctrl RPC against worker w. A StepReq,
// CompensateReq or FetchReq carries w's debt (see owe), so a superstep —
// or a survivor's share of a compensation, or a checkpoint fetch — is
// one round trip; anything else settles it first. The rpcConn absorbs
// transient faults (timeouts retry with the same idempotence token,
// broken connections wait for the worker's redial); only when its whole
// retry budget is exhausted does the failure reach here as a transport
// error, and the worker is condemned. An application-level rejection
// proves the worker alive and is passed through untouched.
func (c *Coordinator) call(w int, req any) (resp any, err error) {
	c.mu.Lock()
	p := c.procs[w]
	c.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("proc: no process for worker %d", w)
	}
	return c.callOn(p, req, nil)
}

// callOn is call against p, decoding a StepResp into into (see relay).
func (c *Coordinator) callOn(p *workerProc, req any, into *relay) (resp any, err error) {
	c.mu.Lock()
	owed := p.owed
	p.owed = Owed{}
	c.mu.Unlock()
	switch r := req.(type) {
	case *StepReq:
		r.Commit = owed
	case StepReq:
		r.Commit = owed
		req = r
	case CompensateReq:
		r.Commit = owed
		req = r
	case FetchReq:
		r.Commit = owed
		req = r
	default:
		err = p.settle(owed)
	}
	if err == nil {
		resp, err = p.ctrl.call(req, into)
	}
	if isTransportError(err) {
		c.condemn(p.id, fmt.Sprintf("%T failed: %v", req, err))
	}
	return resp, err
}

// placeInto writes every partition's owner into placement and the live
// owners, ascending, into workers, reusing both slices' memory.
func (c *Coordinator) placeInto(placement, workers []int) ([]int, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	placement, workers = placement[:0], workers[:0]
	for p := range c.cl.NumPartitions() {
		w := c.cl.Owner(p)
		placement = append(placement, w)
		if c.cl.IsAlive(w) && !slices.Contains(workers, w) {
			workers = append(workers, w)
		}
	}
	slices.Sort(workers)
	return placement, workers
}

// stepOn hands sc to worker w's stepper, which runs it and answers on
// done. A worker that has no process, or whose process is gone, is
// answered at once.
func (c *Coordinator) stepOn(w int, sc *stepCall, done chan<- *stepCall) {
	c.mu.Lock()
	p := c.procs[w]
	c.mu.Unlock()
	sc.done = done
	if p == nil {
		sc.err = fmt.Errorf("proc: no process for worker %d", w)
		done <- sc
		return
	}
	select {
	case p.steps <- sc:
	case <-p.gone:
		sc.err = &transportError{err: errors.New("proc: worker gone")}
		done <- sc
	}
}

// serveSteps runs p's superstep calls, one at a time, until p is gone:
// the request goes out from the job's scratch and the answer decodes
// into p's relay, so a steady superstep starts no goroutine and boxes
// nothing. A call it has taken always answers, gone or not, and never
// waits to: done has a slot for every call of the attempt.
func (c *Coordinator) serveSteps(p *workerProc) {
	defer c.bg.Done()
	for {
		select {
		case sc := <-p.steps:
			resp, err := c.callOn(p, &sc.req, &p.relay)
			if r, ok := resp.(*StepResp); ok {
				sc.resp = *r
			} else if err == nil {
				err = fmt.Errorf("proc: worker %d answered a StepReq with a %T", p.id, resp)
			}
			sc.err = err
			select {
			case sc.done <- sc:
			default:
				panic("proc: a superstep answer found its channel full")
			}
		case <-p.gone:
			return
		}
	}
}

// fetchState reads the committed state views of parts from worker w,
// carrying w's debt.
func (c *Coordinator) fetchState(w int, parts []int) ([]PartBlob, error) {
	resp, err := c.call(w, FetchReq{Parts: parts})
	if err != nil {
		return nil, err
	}
	return resp.(FetchResp).Parts, nil
}

// restoreState overwrites partition state on worker w once w's debt is
// settled.
func (c *Coordinator) restoreState(w int, parts []PartBlob) error {
	_, err := c.call(w, RestoreReq{Parts: parts})
	return err
}
