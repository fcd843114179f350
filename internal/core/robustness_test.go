package core

import (
	"net"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// TestMalformedUDPDatagramsIgnored floods the server with garbage; the
// proxy must count parse errors and keep serving.
func TestMalformedUDPDatagramsIgnored(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 2})
	cli, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dst, _ := net.ResolveUDPAddr("udp", srv.Addr())
	for _, garbage := range [][]byte{
		[]byte("not sip at all"),
		[]byte("INVITE\r\n\r\n"),
		[]byte("SIP/2.0 9999 Nope\r\n\r\n"),
		{0x00, 0xff, 0x13, 0x37},
		[]byte("INVITE sip:x@y SIP/2.0\r\nContent-Length: -3\r\n\r\n"),
	} {
		if err := cli.WriteTo(garbage, dst); err != nil {
			t.Fatal(err)
		}
	}
	// Server still works afterwards.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Profile().Counter("proxy.parse_errors").Value() >= 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Profile().Counter("proxy.parse_errors").Value(); got < 5 {
		t.Errorf("parse errors = %d, want >= 5", got)
	}
	res := runLoad(t, srv, transport.UDP, 2, 3, 0)
	assertClean(t, res, 6)
}

// TestMalformedTCPStreamDropsConnection sends unframeable bytes on a TCP
// connection; the server must drop that connection (stream framing is
// unrecoverable) without disturbing others.
func TestMalformedTCPStreamDropsConnection(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchTCP, Workers: 2})
	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("GARBAGE NOT SIP\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server should close the connection on us.
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := bad.Read(buf); err == nil {
		// One read may return data (none expected); the next must fail.
		if _, err := bad.Read(buf); err == nil {
			t.Error("server kept a connection with a corrupted stream open")
		}
	}
	// Unaffected clients still complete calls.
	res := runLoad(t, srv, transport.TCP, 2, 3, 0)
	assertClean(t, res, 6)
}

// TestAbruptClientDisconnect kills TCP connections mid-lifecycle and
// checks the server destroys the objects.
func TestAbruptClientDisconnect(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchTCP,
		Workers:           2,
		IdleCheckInterval: 25 * time.Millisecond,
	})
	ts := srv.(*streamServer)
	for i := 0; i < 10; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Half send a partial message first.
		if i%2 == 0 {
			c.Write([]byte("INVITE sip:x@y SIP/2.0\r\nVia: SIP"))
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ts.ConnCount() > 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if got := ts.ConnCount(); got != 0 {
		t.Errorf("%d connection objects leaked after disconnects", got)
	}
}

// TestStatelessProxyEndToEnd runs the §2 stateless configuration: no
// Trying, no transaction state, but calls still complete (the caller
// carries the reliability burden).
func TestStatelessProxyEndToEnd(t *testing.T) {
	srv, err := New(Config{
		Arch:     ArchUDP,
		Workers:  4,
		Stateful: false,
		Domain:   testDomain,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.DB().ProvisionN(16, testDomain)
	res := runLoad(t, srv, transport.UDP, 3, 4, 0)
	assertClean(t, res, 12)
	if got := srv.Profile().Counter(metrics.MetricTxnCreated).Value(); got != 0 {
		t.Errorf("stateless proxy created %d transactions", got)
	}
}

// TestSCTPSimEndToEnd runs the §6 SCTP-style configuration: the UDP
// architecture with a reliable transport, so no retransmission timers.
func TestSCTPSimEndToEnd(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchSCTP, Workers: 4})
	res := runLoad(t, srv, transport.UDP, 3, 4, 0)
	assertClean(t, res, 12)
	if !srv.Engine().Config().Reliable {
		t.Error("sctpsim engine not marked reliable")
	}
	if got := srv.Profile().Counter(metrics.MetricRetransmits).Value(); got != 0 {
		t.Errorf("sctpsim armed retransmissions: %d", got)
	}
}

// TestSupervisorAssignsUnderMailboxPressure floods accepts faster than a
// single tiny-mailbox worker drains them; the pending queue must not lose
// connections (the §6 deadlock-avoidance path).
func TestSupervisorAssignsUnderMailboxPressure(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchTCP, Workers: 2})
	ts := srv.(*streamServer)
	const n = 150 // > newConns buffer (64) per worker is hard; just exercise bursts
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ts.ConnCount() >= n {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := ts.ConnCount(); got < n {
		t.Errorf("only %d/%d connections tracked after burst", got, n)
	}
	// All must eventually have an owner (assignment completed).
	assigned := 0
	for _, c := range ts.table.Snapshot() {
		if c.Owner() >= 0 {
			assigned++
		}
	}
	if assigned < n {
		t.Errorf("only %d/%d connections assigned to workers", assigned, n)
	}
}

// TestFDCacheCapacityBound verifies the capacity knob reaches the workers.
func TestFDCacheCapacityBound(t *testing.T) {
	srv := startServer(t, Config{
		Arch:            ArchTCP,
		Workers:         2,
		FDCache:         true,
		FDCacheCapacity: 1,
		ConnMgr:         connmgr.KindScan,
	})
	res := runLoad(t, srv, transport.TCP, 3, 5, 0)
	assertClean(t, res, 15)
	// The cache is worker-private; inspect it only after the workers exit.
	srv.Close()
	for _, w := range srv.(*streamServer).workers {
		if w.cache == nil {
			t.Fatal("cache not constructed")
		}
		if w.cache.Cap() != 1 {
			t.Errorf("cache capacity %d, want 1", w.cache.Cap())
		}
	}
}

// TestManyConcurrentMixedClients mixes persistent and churning TCP callers
// with UDP traffic against two servers simultaneously.
func TestManyConcurrentMixedClients(t *testing.T) {
	tcpSrv := startServer(t, Config{Arch: ArchTCP, Workers: 4, FDCache: true, ConnMgr: connmgr.KindPQueue})
	udpSrv := startServer(t, Config{Arch: ArchUDP, Workers: 4})
	done := make(chan error, 2)
	go func() {
		res := runLoad(t, tcpSrv, transport.TCP, 4, 6, 4)
		if res.CallsFailed > 0 {
			done <- errFailed
			return
		}
		done <- nil
	}()
	go func() {
		res := runLoad(t, udpSrv, transport.UDP, 4, 6, 0)
		if res.CallsFailed > 0 {
			done <- errFailed
			return
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

var errFailed = &failedErr{}

type failedErr struct{}

func (*failedErr) Error() string { return "calls failed under mixed load" }
