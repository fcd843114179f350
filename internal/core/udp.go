package core

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// udpServer is the §3.2 architecture: all worker goroutines are symmetric,
// each looping receive → process → forward. The kernel delivers each
// datagram to exactly one blocked reader, and sends need no coordination
// because UDP writes are message-atomic.
//
// Two opt-in departures from the paper's configuration live here:
//
//   - With UDPShards > 1 the workers spread across several SO_REUSEPORT
//     sockets bound to one port, so the kernel hashes arrivals between
//     sockets instead of waking competing readers on one fd.
//   - With UDPBatch > 1 each worker receives a batch per recvmmsg call and
//     queues its responses into a per-worker egress buffer flushed by
//     sendmmsg when the worker finishes the batch — batch in, one syscall
//     out. Timer-driven retransmissions ride a dedicated egress whose
//     microsecond linger is its only flush trigger.
//
// Both default off, leaving the one-syscall-per-message baseline intact.
type udpServer struct {
	*substrate
	socks    []*transport.UDPSocket
	egresses []*transport.Egress // all owned egress queues (empty unbatched)
	faults   *faultGate

	wg     sync.WaitGroup
	closed chan struct{}
}

// resolveCache memoizes hostport → UDP address resolution. One cache is
// shared by every sender of a server regardless of sharding, so the hit
// rate is unaffected by which worker handles a message.
type resolveCache struct {
	mu    sync.RWMutex
	addrs map[string]*net.UDPAddr

	hits   *metrics.Counter
	misses *metrics.Counter
}

func newResolveCache(prof *metrics.Profile) *resolveCache {
	return &resolveCache{
		addrs:  make(map[string]*net.UDPAddr),
		hits:   prof.Counter(metrics.MetricResolveHit),
		misses: prof.Counter(metrics.MetricResolveMiss),
	}
}

// maxResolveCache bounds the resolve cache: legitimate workloads touch a
// handful of peer addresses, so the bound only matters under hostile
// traffic that varies the destination per message.
const maxResolveCache = 4096

func (rc *resolveCache) resolve(hostport string) (*net.UDPAddr, error) {
	rc.mu.RLock()
	a, ok := rc.addrs[hostport]
	rc.mu.RUnlock()
	if ok {
		rc.hits.Inc()
		return a, nil
	}
	rc.misses.Inc()
	a, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	if len(rc.addrs) >= maxResolveCache {
		// Evict one arbitrary entry; random replacement keeps the hot
		// working set resident with high probability.
		for k := range rc.addrs {
			delete(rc.addrs, k)
			break
		}
	}
	rc.addrs[hostport] = a
	rc.mu.Unlock()
	return a, nil
}

// udpSender implements proxy.Sender for one worker (or the timer process):
// it is bound to that worker's shard socket and, when batching is on, to
// its egress queue. Without an egress it is safe for use from any
// goroutine; with one it is still safe (the egress serializes internally),
// but each worker owning its own keeps batches coherent per worker.
type udpSender struct {
	sock   *transport.UDPSocket
	egress *transport.Egress // nil = direct single-datagram sends
	faults *faultGate
	cache  *resolveCache
}

// send is the single exit for all UDP transmissions: the message's cached
// wire image (serialized once, reused across retransmissions and the
// metrics path) goes either to the egress queue or straight to the socket.
func (s *udpSender) send(m *sipmsg.Message, addr *net.UDPAddr) error {
	if s.faults.dropTx() {
		return nil // silently lost in the simulated network
	}
	wire := m.Serialize()
	if s.egress != nil {
		return s.egress.Enqueue(wire, addr)
	}
	return s.sock.WriteTo(wire, addr)
}

func (s *udpSender) ToOrigin(origin any, m *sipmsg.Message) error {
	addr, ok := origin.(*net.UDPAddr)
	if !ok {
		return fmt.Errorf("core: UDP origin is %T", origin)
	}
	return s.send(m, addr)
}

func (s *udpSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	// Over UDP the registered source address is directly reachable; fall
	// back to the contact for bindings installed out of band.
	target := b.Source
	if target == "" {
		target = b.Contact.HostPort()
	}
	return s.ToAddr(b.Transport, target, m)
}

func (s *udpSender) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	addr, err := s.cache.resolve(hostport)
	if err != nil {
		return err
	}
	return s.send(m, addr)
}

func newUDPServer(cfg Config) (Server, error) {
	sub, err := newSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	nShards := cfg.UDPShards
	if nShards < 1 {
		nShards = 1
	}
	opts := transport.UDPOptions{
		BatchSize: cfg.UDPBatch,
		ReusePort: nShards > 1,
		RcvBuf:    cfg.SoRcvBuf,
		SndBuf:    cfg.SoSndBuf,
		Profile:   sub.prof,
	}
	closeAll := func(socks []*transport.UDPSocket) {
		for _, s := range socks {
			s.Close()
		}
	}
	var socks []*transport.UDPSocket
	first, err := transport.ListenUDPOptions(cfg.Addr, opts)
	if err != nil {
		sub.close()
		return nil, err
	}
	socks = append(socks, first)
	// The remaining shards bind the port the first socket resolved; the
	// kernel hashes datagrams between them by source 4-tuple.
	for i := 1; i < nShards; i++ {
		s, err := transport.ListenUDPOptions(first.LocalAddr().String(), opts)
		if err != nil {
			closeAll(socks)
			sub.close()
			return nil, err
		}
		socks = append(socks, s)
	}

	local := first.LocalAddr()
	sub.bindEngine(transport.UDP, local.IP.String(), local.Port)
	faults := newFaultGate(cfg.Faults)
	cache := newResolveCache(sub.prof)
	batching := cfg.UDPBatch > 1

	srv := &udpServer{
		substrate: sub,
		socks:     socks,
		faults:    faults,
		closed:    make(chan struct{}),
	}

	// The timer process sends retransmissions from outside any worker loop.
	// It shares the first shard's socket; with batching on it gets its own
	// egress, whose linger deadline is the only thing that flushes it.
	timerSender := &udpSender{sock: socks[0], faults: faults, cache: cache}
	if batching {
		eg := transport.NewEgress(socks[0], cfg.UDPBatch, cfg.EgressLinger, sub.prof)
		timerSender.egress = eg
		srv.egresses = append(srv.egresses, eg)
	}
	sub.engine.SetTimerSender(timerSender)

	for i := 0; i < cfg.Workers; i++ {
		sock := socks[i%nShards]
		sender := &udpSender{sock: sock, faults: faults, cache: cache}
		srv.wg.Add(1)
		if batching {
			eg := transport.NewEgress(sock, cfg.UDPBatch, cfg.EgressLinger, sub.prof)
			sender.egress = eg
			srv.egresses = append(srv.egresses, eg)
			go srv.batchWorker(sock, sender, eg)
		} else {
			go srv.worker(sock, sender)
		}
	}
	return srv, nil
}

// process runs the shared per-datagram path: fault gate, parse, admission,
// engine. pkt.Data is consumed before process returns (the parser copies);
// pkt.Src is freshly allocated per datagram and may be retained by the
// engine as the transaction origin.
func (s *udpServer) process(sender *udpSender, pkt transport.Packet) {
	if s.faults.dropRx() {
		return
	}
	m, ok := s.parseOrCount(pkt.Data)
	if !ok {
		return
	}
	// Admission control runs before any transaction or database work: a
	// rejected request costs one 503 serialization and nothing else.
	if !s.admit(sender, m, pkt.Src, 0) {
		m.Release()
		return
	}
	s.handleTimed(sender, m, pkt.Src)
	// The engine retained the message if it needed it (transaction store);
	// the worker's reference is done.
	m.Release()
}

// worker is one symmetric UDP worker process: receive, process, forward.
func (s *udpServer) worker(sock *transport.UDPSocket, sender *udpSender) {
	defer s.wg.Done()
	for {
		pkt, err := sock.ReadPacket()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if isClosedErr(err) {
				return
			}
			continue
		}
		s.process(sender, pkt)
		sock.Release(pkt)
	}
}

// batchWorker is the batched variant: drain up to a batch of datagrams in
// one recvmmsg, process them all, then flush the responses that queued up
// in one sendmmsg. The reader owns its buffers, so no pool traffic occurs
// on this path at all.
func (s *udpServer) batchWorker(sock *transport.UDPSocket, sender *udpSender, eg *transport.Egress) {
	defer s.wg.Done()
	br := sock.NewBatchReader(s.cfg.UDPBatch)
	for {
		n, err := sock.ReadBatch(br)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if isClosedErr(err) {
				return
			}
			continue
		}
		pkts := br.Packets()[:n]
		for i := range pkts {
			s.process(sender, pkts[i])
		}
		// Batch in, one sendmmsg out: everything this batch produced leaves
		// together instead of waiting out the linger.
		eg.Drain()
	}
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

func (s *udpServer) Addr() string { return s.socks[0].LocalAddr().String() }

// BufferSizes reports the effective socket buffer sizes of the first shard
// (all shards are configured identically). Exposed for startup logging via
// type assertion.
func (s *udpServer) BufferSizes() (rcv, snd int) { return s.socks[0].BufferSizes() }

// ShardCount reports the number of listening sockets.
func (s *udpServer) ShardCount() int { return len(s.socks) }

func (s *udpServer) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
		close(s.closed)
	}
	// Egress queues first: their final flush still has live sockets, and
	// late timer sends fall through to the direct path afterwards.
	for _, eg := range s.egresses {
		eg.Close()
	}
	var err error
	for _, sock := range s.socks {
		if e := sock.Close(); e != nil && err == nil {
			err = e
		}
	}
	s.wg.Wait()
	s.substrate.close()
	return err
}
