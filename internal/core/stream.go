package core

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/fdcache"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// streamServer serves both stream architectures. Workers are event loops
// fed by per-connection readers, and a connection's messages are processed
// only on the worker that owns it. The architectures differ in whether a
// supervisor stands between the workers and the connection table:
//
//   - §3.1 (ArchTCP): one supervisor goroutine owns connection management:
//     assignment, fd service and destroying returned connections. A worker
//     writes its own connections directly and must obtain a descriptor
//     through the IPC fabric (or its fd cache) for every other one. Idle
//     close is two-phase: the worker returns, the supervisor destroys.
//   - §6 (ArchThreaded): workers share one address space, so any worker
//     writes any connection directly under its send lock. The acceptor
//     dispatches round-robin and the owning worker destroys its own idle
//     or dead connections in one step.
//
// Every difference is a branch on sup == nil.
type streamServer struct {
	*substrate
	ln      net.Listener
	table   *conn.Table
	sup     *supervisor // nil: the §6 shared-address-space server
	workers []*streamWorker

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // acceptor + supervisor + workers

	rr int // the §6 acceptor's round-robin cursor
}

// supervisor is the §3.1 single connection-management process.
type supervisor struct {
	srv    *streamServer
	fabric *ipc.Fabric
	mgr    connmgr.Manager

	accepts chan *conn.TCPConn // acceptor → supervisor
	adopted chan *conn.TCPConn // worker-dialed conns → supervisor tracking
	retired chan *conn.TCPConn // dead conns → supervisor destroy

	// pending holds accepted connections waiting for a worker with mailbox
	// room. Buffering here instead of blocking on a worker's queue is the
	// §6 deadlock avoidance: the supervisor must never block sending to a
	// worker that may itself be blocked waiting on the supervisor.
	pending []*conn.TCPConn
	// rng drives worker assignment. OpenSER's assignment is arbitrary with
	// respect to which connections later form the two halves of a
	// transaction ("the supervisor cannot know ahead of time which
	// connections will form the two halves"); randomizing preserves that
	// property, which deterministic round-robin accidentally violates for
	// paired benchmark arrivals.
	rng *rand.Rand
}

// streamWorker models one OpenSER worker process: a single event loop that
// processes messages from its owned connections, closes idle ones, and
// sends through its streamSender.
type streamWorker struct {
	id  int
	srv *streamServer

	newConns chan *conn.TCPConn
	events   chan workerEvent

	localMgr connmgr.Manager
	cache    *fdcache.Cache // nil unless §3.1 with the Figure 4 fix
	sender   *streamSender
}

type workerEvent struct {
	c *conn.TCPConn
	m *sipmsg.Message // nil: the reader terminated (EOF, reset, or return)
}

func newStreamServer(cfg Config) (Server, error) {
	sub, err := newSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		sub.close()
		return nil, err
	}
	srv := &streamServer{
		substrate: sub,
		ln:        ln,
		table:     conn.NewTable(sub.prof),
		closed:    make(chan struct{}),
	}
	if cfg.Arch == ArchTCP {
		fabric, err := ipc.NewFabric(cfg.IPCMode, cfg.Workers, cfg.IPCTimeout, sub.prof)
		if err != nil {
			ln.Close()
			sub.close()
			return nil, err
		}
		srv.sup = newSupervisor(srv, fabric)
	}
	local := ln.Addr().(*net.TCPAddr)
	sub.bindEngine(sub.streamKind(), local.IP.String(), local.Port)
	sub.prof.SetGauge(metrics.GaugeOpenConns, func() float64 { return float64(srv.table.Len()) })
	for i := 0; i < cfg.Workers; i++ {
		w := &streamWorker{
			id:       i,
			srv:      srv,
			newConns: make(chan *conn.TCPConn, 64),
			events:   make(chan workerEvent, 256),
			localMgr: connmgr.New(cfg.ConnMgr, sub.prof),
		}
		if cfg.FDCache && srv.sup != nil {
			w.cache = fdcache.New(cfg.FDCacheCapacity, sub.prof)
		}
		w.sender = &streamSender{w: w}
		srv.workers = append(srv.workers, w)
	}
	srv.wg.Add(1 + len(srv.workers))
	go srv.acceptor()
	if srv.sup != nil {
		srv.wg.Add(1)
		go srv.sup.run()
	}
	for _, w := range srv.workers {
		go w.run()
	}
	return srv, nil
}

// acceptor accepts every connection on the server's behalf and hands it
// off. Under §3.1 it feeds the supervisor, which alone decides ownership
// ("the supervisor accepts all connections on behalf of the server"). In
// OpenSER the supervisor itself sits in accept(); splitting the blocking
// accept from the supervisor loop is the Go equivalent, with the hand-off
// channel playing the listen backlog.
func (s *streamServer) acceptor() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := s.table.Insert(s.wrapStream(nc), s.cfg.IdleTimeout)
		if !s.handOff(c) {
			s.table.Remove(c)
			return
		}
	}
}

// handOff passes an accepted connection to the supervisor or, with none,
// round-robin to a worker: the first with mailbox room, else blocking on
// the next in turn. With no supervisor in the loop there is no two-party
// deadlock to avoid. It reports false on shutdown.
func (s *streamServer) handOff(c *conn.TCPConn) bool {
	var mailbox chan<- *conn.TCPConn
	if s.sup != nil {
		mailbox = s.sup.accepts
	} else {
		for range s.workers {
			w := s.workers[s.rr%len(s.workers)]
			s.rr++
			select {
			case w.newConns <- c:
				return true
			default:
			}
		}
		mailbox = s.workers[s.rr%len(s.workers)].newConns
		s.rr++
	}
	select {
	case mailbox <- c:
		return true
	case <-s.closed:
		return false
	}
}

// --- supervisor side (§3.1) ---

func newSupervisor(srv *streamServer, fabric *ipc.Fabric) *supervisor {
	// The supervisor's baseline strategy scans the shared table under its
	// global lock (the paper's §5.2 pathology); the pqueue fix replaces it.
	var mgr connmgr.Manager
	if srv.cfg.ConnMgr == connmgr.KindPQueue {
		pq := connmgr.NewPQueue(srv.prof)
		pq.ReinsertDelay = srv.cfg.SupervisorGrace
		mgr = pq
	} else {
		mgr = connmgr.NewTableScanner(srv.table, srv.prof)
	}
	return &supervisor{
		srv:     srv,
		fabric:  fabric,
		mgr:     mgr,
		accepts: make(chan *conn.TCPConn, 64),
		adopted: make(chan *conn.TCPConn, 64),
		retired: make(chan *conn.TCPConn, 256),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

func (sv *supervisor) run() {
	defer sv.srv.wg.Done()
	ticker := time.NewTicker(sv.srv.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		sv.assignPending()
		select {
		case c := <-sv.accepts:
			sv.assign(c)
		case req := <-sv.fabric.Requests():
			sv.serveFD(req)
		case c := <-sv.adopted:
			sv.mgr.Add(c)
		case c := <-sv.retired:
			sv.destroy(c)
		case <-ticker.C:
		case <-sv.srv.closed:
			return
		}
		// OpenSER's tcp_main checks for idle connections on every loop
		// iteration, so the check's cost is paid per event: O(table) under
		// the global lock for the baseline scanner, O(expired) for the
		// priority queue. This per-iteration placement is what Figure 5
		// measures.
		sv.idleCheck(time.Now())
	}
}

// serveFD answers one worker's blocking descriptor request. With the
// supervisor priority boost absent (§4.3), each request first pays the
// scheduling penalty, starving all blocked workers.
func (sv *supervisor) serveFD(req ipc.Request) {
	if p := sv.srv.cfg.SupervisorPenalty; p > 0 {
		time.Sleep(p)
	}
	c := sv.srv.table.Get(req.ConnID)
	if c == nil || c.State() == conn.StateClosed {
		sv.fabric.Respond(req, nil, ipc.ErrConnGone)
		return
	}
	sv.fabric.Respond(req, c, nil)
}

// assign hands a new connection to a worker: the first with mailbox room,
// scanning from a random start so assignment stays arbitrary with respect
// to transaction halves (see rng). Full mailboxes push the connection to
// the pending list rather than blocking the supervisor (§6 deadlock
// avoidance).
func (sv *supervisor) assign(c *conn.TCPConn) {
	sv.mgr.Add(c)
	if !sv.tryAssign(c) {
		sv.pending = append(sv.pending, c)
	}
}

func (sv *supervisor) tryAssign(c *conn.TCPConn) bool {
	workers := sv.srv.workers
	start := sv.rng.Intn(len(workers))
	for i := 0; i < len(workers); i++ {
		w := workers[(start+i)%len(workers)]
		select {
		case w.newConns <- c:
			return true
		default:
		}
	}
	return false
}

func (sv *supervisor) assignPending() {
	out := sv.pending[:0]
	for _, c := range sv.pending {
		if c.State() == conn.StateClosed {
			continue
		}
		if !sv.tryAssign(c) {
			out = append(out, c)
		}
	}
	sv.pending = out
}

// destroy removes a connection object and closes the supervisor's socket.
func (sv *supervisor) destroy(c *conn.TCPConn) {
	sv.mgr.Remove(c)
	sv.srv.table.Remove(c)
}

// idleCheck performs the supervisor's half of idle management: destroy
// connections the workers have returned, once the additional grace period
// has elapsed.
func (sv *supervisor) idleCheck(now time.Time) {
	grace := sv.srv.cfg.SupervisorGrace
	expired := sv.mgr.Expired(now, func(c *conn.TCPConn, now time.Time) bool {
		return c.State() == conn.StateWorkerReturned && !now.Before(c.Deadline().Add(grace))
	})
	for _, c := range expired {
		sv.srv.table.Remove(c)
	}
}

// --- worker side ---

func (w *streamWorker) run() {
	defer w.srv.wg.Done()
	ticker := time.NewTicker(w.srv.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		sweep := false
		select {
		case c := <-w.newConns:
			w.adopt(c)
		case ev := <-w.events:
			w.handleEvent(ev)
		case <-ticker.C:
			sweep = true
		case <-w.srv.closed:
			if w.cache != nil {
				w.cache.Close()
			}
			return
		}
		// Like the supervisor, a §3.1 worker checks its owned connections on
		// every loop iteration ("even the worker processes examined every
		// connection they owned"); a §6 worker only on the periodic tick.
		// The fd cache is swept only on the tick — it is worker-private and
		// cheap to keep.
		if sweep || w.srv.sup != nil {
			w.idleCheck(time.Now(), sweep)
		}
	}
}

// adopt takes ownership of a connection: only this worker will read it.
func (w *streamWorker) adopt(c *conn.TCPConn) {
	c.SetOwner(w.id)
	w.localMgr.Add(c)
	go w.reader(c)
}

// reader is the per-connection read pump feeding the worker's single event
// loop; message processing still happens serially on the worker, so the
// one-process-per-worker discipline holds. With read-pausing enabled the
// pump additionally implements connection-level backpressure (Shen &
// Schulzrinne): while the owning worker's event queue is at its budget the
// reader stops reading, unread bytes accumulate in the socket buffer, and
// the kernel's flow control throttles the sender.
func (w *streamWorker) reader(c *conn.TCPConn) {
	if err := w.srv.handshakeAccepted(c); err != nil {
		// A failed handshake takes the same exit as EOF/reset: the event
		// loop retires the connection, so the fd and the connection object
		// are reclaimed without a special path.
		select {
		case w.events <- workerEvent{c: c}:
		case <-w.srv.closed:
		}
		return
	}
	ctrl := w.srv.ctrl
	pausing := ctrl.PausesReads()
	budget := ctrl.QueueBudget()
	for {
		if pausing && len(w.events) >= budget {
			ctrl.NoteReadPause()
			for len(w.events) >= budget {
				select {
				case <-w.srv.closed:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}
		m, err := c.Stream().ReadMessage()
		if err != nil {
			select {
			case w.events <- workerEvent{c: c}:
			case <-w.srv.closed:
			}
			return
		}
		select {
		case w.events <- workerEvent{c: c, m: m}:
		case <-w.srv.closed:
			return
		}
	}
}

func (w *streamWorker) handleEvent(ev workerEvent) {
	c := ev.c
	if ev.m == nil {
		w.retire(c)
		return
	}
	if c.State() != conn.StateActive {
		ev.m.Release()
		return // message raced with our idle return; drop as OpenSER would
	}
	now := time.Now()
	// The time between the reader's parse and this worker picking the event
	// up is queue wait — the gap a traced timeline must account for.
	trace.Of(ev.m).Gap(trace.StageQueue, now)
	// The first traced request on a TLS connection inherits the handshake
	// that preceded it (negative Start offset: the cost was paid before the
	// request's first byte parsed).
	if end, d, ok := c.TakeHandshake(); ok {
		trace.Of(ev.m).Add(trace.StageHandshake, end.Add(-d), d)
	}
	c.Touch(now, w.srv.cfg.IdleTimeout)
	// Admission control runs before transaction and database work; the
	// queue depth doubles as the threshold policy's per-worker load signal.
	if !w.srv.admit(w.sender, ev.m, c, len(w.events)) {
		ev.m.Release()
		return
	}
	w.srv.handleTimed(w.sender, ev.m, c)
	// The engine retained the message if it needed it; the worker is done.
	ev.m.Release()
}

// retire handles a terminated reader.
func (w *streamWorker) retire(c *conn.TCPConn) {
	if w.srv.sup == nil {
		// Shared address space: destroy in one step, with no
		// return-to-supervisor handshake.
		w.localMgr.Remove(c)
		w.srv.table.Remove(c)
		return
	}
	// If the connection was still active this is a peer close/reset: return
	// it and tell the supervisor to destroy it.
	if c.MarkWorkerReturned() {
		w.localMgr.Remove(c)
		select {
		case w.srv.sup.retired <- c:
		case <-w.srv.closed:
		}
	}
}

// idleCheck is the worker's half of idle management: close connections
// idle past the timeout. The strategy (full scan vs priority queue) is the
// Figure 5 variable.
func (w *streamWorker) idleCheck(now time.Time, sweep bool) {
	for _, c := range w.localMgr.Expired(now, func(c *conn.TCPConn, _ time.Time) bool {
		return c.Owner() == w.id
	}) {
		// Under §3.1 the worker only returns the connection; the supervisor
		// destroys it after its grace period.
		if w.srv.sup != nil && !c.MarkWorkerReturned() {
			continue
		}
		// "Closing the worker's descriptor": stop reading. The blocked
		// reader is unblocked via a read deadline and exits.
		_ = c.Stream().SetReadDeadline(time.Now())
		if w.srv.sup == nil {
			w.srv.table.Remove(c)
		}
	}
	if sweep && w.cache != nil {
		w.cache.Sweep()
	}
}

// streamSender implements proxy.Sender for one worker.
type streamSender struct {
	w *streamWorker
}

func (ts *streamSender) ToOrigin(origin any, m *sipmsg.Message) error {
	c, ok := origin.(*conn.TCPConn)
	if !ok {
		return fmt.Errorf("core: TCP origin is %T", origin)
	}
	return ts.sendOnConn(c, m)
}

func (ts *streamSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	// Prefer the connection the binding was registered over (OpenSER's
	// connection reuse): its remote address is the binding source.
	if b.Source != "" {
		if c := ts.w.srv.table.Lookup(b.Source); c != nil && c.State() == conn.StateActive {
			return ts.sendOnConn(c, m)
		}
	}
	return ts.ToAddr(b.Transport, b.Contact.HostPort(), m)
}

func (ts *streamSender) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	srv := ts.w.srv
	if c := srv.table.Lookup(hostport); c != nil && c.State() == conn.StateActive {
		return ts.sendOnConn(c, m)
	}
	// No usable connection: the worker establishes one (OpenSER's
	// tcpconn_connect) and owns its reads; a supervisor is told so it can
	// track the connection.
	sc, hs, err := srv.dialStream(hostport)
	if err != nil {
		return err
	}
	if hs > 0 {
		now := time.Now()
		trace.Of(m).Add(trace.StageHandshake, now.Add(-hs), hs)
	}
	c := srv.table.Insert(sc, srv.cfg.IdleTimeout)
	ts.w.adopt(c)
	if srv.sup != nil {
		select {
		case srv.sup.adopted <- c:
		case <-srv.closed:
		}
	}
	return ts.sendOnConn(c, m)
}

// sendOnConn delivers a message on a specific connection following the
// architecture's descriptor rules. Owners write directly, and so does
// everyone in the shared address space (the §6 payoff). Under §3.1 everyone
// else consults the fd cache (when enabled) and otherwise performs the
// blocking supervisor IPC — and, in the baseline, closes the descriptor
// right after sending, which is the behaviour Figure 4 indicts.
func (ts *streamSender) sendOnConn(c *conn.TCPConn, m *sipmsg.Message) error {
	w := ts.w
	direct := c.Owner() == w.id || w.srv.sup == nil
	if !direct && w.srv.tls != nil {
		// TLS breaks the fd-passing model: the connection's record-layer
		// crypto state lives in this process's user space, so a duplicated
		// descriptor in another worker would desynchronize the stream.
		// Non-owner sends are pinned to the shared connection object
		// instead of going through the fd cache or the supervisor fabric —
		// the send lock serializes writers, and tls.pinned_sends measures
		// how often the architecture's fd economy is bypassed.
		w.srv.tlsPinned.Inc()
		direct = true
	}
	if direct {
		if err := ipc.DirectHandle(c).Send(m); err != nil {
			return err
		}
		c.Touch(time.Now(), w.srv.cfg.IdleTimeout)
		return nil
	}
	if w.cache != nil {
		tFd := time.Now()
		if h := w.cache.Get(c.ID()); h != nil {
			trace.Of(m).Span(trace.StageFDCache, tFd)
			if err := h.Send(m); err == nil {
				c.Touch(time.Now(), w.srv.cfg.IdleTimeout)
				return nil
			}
			w.cache.Invalidate(c.ID())
		}
	}
	tIPC := time.Now()
	h, err := w.srv.sup.fabric.RequestFD(w.id, c)
	trace.Of(m).Span(trace.StageFDIPC, tIPC)
	if err != nil {
		return err
	}
	if err := h.Send(m); err != nil {
		h.Close()
		return err
	}
	c.Touch(time.Now(), w.srv.cfg.IdleTimeout)
	if w.cache != nil {
		w.cache.Put(c.ID(), h)
	} else {
		h.Close()
	}
	return nil
}

func (s *streamServer) Addr() string { return s.ln.Addr().String() }

// ConnCount reports live connection objects (exported for tests and the
// experiment harness via type assertion).
func (s *streamServer) ConnCount() int { return s.table.Len() }

func (s *streamServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ln.Close()
		if s.sup != nil {
			s.sup.fabric.Close()
		}
		s.closeConns()
	})
	s.wg.Wait()
	// A connection the acceptor or a dialing worker inserted while its loop
	// was exiting can miss the first pass; with every loop gone, this one
	// cannot.
	s.closeConns()
	s.substrate.close()
	return nil
}

func (s *streamServer) closeConns() {
	for _, c := range s.table.Snapshot() {
		s.table.Remove(c)
	}
}
