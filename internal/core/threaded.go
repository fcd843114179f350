package core

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/trace"
	"gosip/internal/userdb"
)

// threadedServer is the architecture §6 argues for: a multi-threaded,
// event-driven server in which all workers share one address space. With
// all workers able to use any file descriptor, the supervisor fd service
// and its IPC disappear entirely; connection writes need only the per-
// connection lock. Idle management is one-phase: the owning worker closes
// and destroys its own idle connections.
type threadedServer struct {
	sub    *substrate
	ln     net.Listener
	engine *proxy.Engine
	table  *conn.Table

	workers []*threadedWorker

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	rr        int
}

type threadedWorker struct {
	id  int
	srv *threadedServer

	newConns chan *conn.TCPConn
	events   chan workerEvent

	owned    map[conn.ID]*conn.TCPConn
	localMgr connmgr.Manager
	sender   *threadedSender
}

func newThreadedServer(cfg Config) (Server, error) {
	sub, err := newSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		sub.close()
		return nil, err
	}
	local := ln.Addr().(*net.TCPAddr)
	engine := proxy.NewEngine(sub.engineConfig(sub.streamKind(), local.IP.String(), local.Port), sub.loc, sub.db, sub.txns, sub.prof)

	srv := &threadedServer{
		sub:    sub,
		ln:     ln,
		engine: engine,
		table:  conn.NewTable(sub.prof),
		closed: make(chan struct{}),
	}
	sub.prof.SetGauge(metrics.GaugeOpenConns, func() float64 { return float64(srv.table.Len()) })
	for i := 0; i < cfg.Workers; i++ {
		w := &threadedWorker{
			id:       i,
			srv:      srv,
			newConns: make(chan *conn.TCPConn, 64),
			events:   make(chan workerEvent, 256),
			owned:    make(map[conn.ID]*conn.TCPConn),
			localMgr: connmgr.New(cfg.ConnMgr, sub.prof),
		}
		w.sender = &threadedSender{w: w}
		srv.workers = append(srv.workers, w)
	}
	srv.wg.Add(1 + len(srv.workers))
	go srv.acceptor()
	for _, w := range srv.workers {
		go w.run()
	}
	return srv, nil
}

func (s *threadedServer) acceptor() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		sc := s.sub.wrapStream(nc)
		c := s.table.Insert(sc, s.sub.cfg.IdleTimeout)
		if !s.dispatch(c) {
			s.table.Remove(c)
			return
		}
	}
}

// workerFor hashes a peer address (FNV-1a) to its affinity worker, so every
// connection from one peer — and the Call-ID-keyed transactions and timers
// its dialogs create — lands on the same event loop.
func (s *threadedServer) workerFor(key string) *threadedWorker {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.workers[h%uint32(len(s.workers))]
}

// dispatch assigns a connection to a worker. Round-robin spreads for
// balance, blocking on the least-loaded fallback; affinity pins by peer
// hash and waits for that specific worker — locality is the policy's whole
// point, so it does not spill. With no supervisor in the loop there is no
// two-party deadlock to avoid.
func (s *threadedServer) dispatch(c *conn.TCPConn) bool {
	if s.sub.cfg.Dispatch == DispatchAffinity {
		w := s.workerFor(c.Key())
		select {
		case w.newConns <- c:
			return true
		case <-s.closed:
			return false
		}
	}
	for i := 0; i < len(s.workers); i++ {
		w := s.workers[s.rr%len(s.workers)]
		s.rr++
		select {
		case w.newConns <- c:
			return true
		default:
		}
	}
	w := s.workers[s.rr%len(s.workers)]
	s.rr++
	select {
	case w.newConns <- c:
		return true
	case <-s.closed:
		return false
	}
}

func (w *threadedWorker) run() {
	defer w.srv.wg.Done()
	ticker := time.NewTicker(w.srv.sub.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		select {
		case c := <-w.newConns:
			w.adopt(c)
		case ev := <-w.events:
			w.handleEvent(ev)
		case now := <-ticker.C:
			w.idleCheck(now)
		case <-w.srv.closed:
			return
		}
	}
}

func (w *threadedWorker) adopt(c *conn.TCPConn) {
	c.SetOwner(w.id)
	w.owned[c.ID()] = c
	w.localMgr.Add(c)
	go w.reader(c)
}

// reader pumps messages into the worker's event loop. Like the TCP
// architecture it supports connection-level backpressure: pausing reads at
// the queue budget lets kernel flow control throttle the peer.
func (w *threadedWorker) reader(c *conn.TCPConn) {
	if err := w.srv.sub.handshakeAccepted(c); err != nil {
		// A failed handshake retires the connection through the normal
		// reader-terminated path, so teardown (table removal, socket close)
		// is identical to an EOF and nothing leaks.
		select {
		case w.events <- workerEvent{c: c}:
		case <-w.srv.closed:
		}
		return
	}
	ctrl := w.srv.sub.ctrl
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

func (w *threadedWorker) handleEvent(ev workerEvent) {
	c := ev.c
	if ev.m == nil {
		w.retire(c)
		return
	}
	if c.State() != conn.StateActive {
		ev.m.Release()
		return
	}
	now := time.Now()
	// Reader-to-worker queue wait, accounted on the traced timeline.
	trace.Of(ev.m).Gap(trace.StageQueue, now)
	// The first traced request on a TLS connection inherits the handshake
	// that preceded it (negative Start offset: the cost was paid before the
	// request's first byte parsed).
	if end, d, ok := c.TakeHandshake(); ok {
		trace.Of(ev.m).Add(trace.StageHandshake, end.Add(-d), d)
	}
	c.Touch(now, w.srv.sub.cfg.IdleTimeout)
	w.localMgr.Touch(c)
	if !w.srv.sub.admit(w.sender, ev.m, c, len(w.events)) {
		ev.m.Release()
		return
	}
	w.srv.sub.handleTimed(w.srv.engine, w.sender, ev.m, c)
	// The engine retained the message if it needed it; the worker is done.
	ev.m.Release()
}

// retire destroys a connection in one step: shared address space means no
// return-to-supervisor handshake.
func (w *threadedWorker) retire(c *conn.TCPConn) {
	delete(w.owned, c.ID())
	w.localMgr.Remove(c)
	w.srv.table.Remove(c)
}

func (w *threadedWorker) idleCheck(now time.Time) {
	for _, c := range w.localMgr.Expired(now, func(c *conn.TCPConn, _ time.Time) bool {
		return c.Owner() == w.id
	}) {
		delete(w.owned, c.ID())
		_ = c.Stream().SetReadDeadline(time.Now())
		w.srv.table.Remove(c)
	}
}

// threadedSender writes any connection directly — the §6 payoff.
type threadedSender struct {
	w *threadedWorker
}

func (ts *threadedSender) ToOrigin(origin any, m *sipmsg.Message) error {
	c, ok := origin.(*conn.TCPConn)
	if !ok {
		return fmt.Errorf("core: TCP origin is %T", origin)
	}
	return ts.send(c, m)
}

func (ts *threadedSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	if b.Source != "" {
		if c := ts.w.srv.table.Lookup(b.Source); c != nil && c.State() == conn.StateActive {
			return ts.send(c, m)
		}
	}
	return ts.ToAddr(b.Transport, b.Contact.HostPort(), m)
}

func (ts *threadedSender) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	if c := ts.w.srv.table.Lookup(hostport); c != nil && c.State() == conn.StateActive {
		return ts.send(c, m)
	}
	sc, hs, err := ts.w.srv.sub.dialStream(hostport)
	if err != nil {
		return err
	}
	if hs > 0 {
		now := time.Now()
		trace.Of(m).Add(trace.StageHandshake, now.Add(-hs), hs)
	}
	srv := ts.w.srv
	c := srv.table.Insert(sc, srv.sub.cfg.IdleTimeout)
	// Under affinity dispatch a dialed connection belongs to the peer's
	// hash worker, same as an accepted one; sending needs no ownership, so
	// the write proceeds while the owner adopts. A backlogged owner keeps
	// the connection local rather than stalling this worker's event loop.
	if srv.sub.cfg.Dispatch == DispatchAffinity {
		if w2 := srv.workerFor(c.Key()); w2 != ts.w {
			select {
			case w2.newConns <- c:
				return ts.send(c, m)
			default:
			}
		}
	}
	ts.w.adopt(c)
	return ts.send(c, m)
}

func (ts *threadedSender) send(c *conn.TCPConn, m *sipmsg.Message) error {
	if err := ipc.DirectHandle(c).Send(m); err != nil {
		return err
	}
	c.Touch(time.Now(), ts.w.srv.sub.cfg.IdleTimeout)
	ts.w.localMgr.Touch(c)
	return nil
}

func (s *threadedServer) Addr() string                { return s.ln.Addr().String() }
func (s *threadedServer) Engine() *proxy.Engine       { return s.engine }
func (s *threadedServer) Profile() *metrics.Profile   { return s.sub.prof }
func (s *threadedServer) Location() *location.Service { return s.sub.loc }
func (s *threadedServer) DB() *userdb.DB              { return s.sub.db }
func (s *threadedServer) Timers() timerlist.Scheduler { return s.sub.timers }
func (s *threadedServer) Tracer() *trace.Recorder     { return s.sub.rec }

// ConnCount reports live connection objects.
func (s *threadedServer) ConnCount() int { return s.table.Len() }

func (s *threadedServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ln.Close()
		for _, c := range s.table.Snapshot() {
			s.table.Remove(c)
		}
	})
	s.wg.Wait()
	s.sub.close()
	return nil
}
