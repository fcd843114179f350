package core

import (
	"net"
	"runtime"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/phone"
	"gosip/internal/sipmsg"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

func TestThreadedAccessors(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 2})
	if srv.Addr() == "" || srv.Engine() == nil || srv.Profile() == nil ||
		srv.Location() == nil || srv.DB() == nil {
		t.Error("accessor returned zero value")
	}
	if srv.(*streamServer).ConnCount() != 0 {
		t.Error("fresh server has connections")
	}
}

func TestThreadedRetiresDisconnectedConns(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 2})
	ts := srv.(*streamServer)
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ts.ConnCount() > 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if got := ts.ConnCount(); got != 0 {
		t.Errorf("%d connections leaked after disconnects", got)
	}
}

func TestThreadedIdleClose(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchThreaded,
		Workers:           2,
		ConnMgr:           connmgr.KindPQueue,
		IdleTimeout:       100 * time.Millisecond,
		IdleCheckInterval: 25 * time.Millisecond,
	})
	ts := srv.(*streamServer)
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Dial returns before the acceptor registers the connection, so an
	// empty table alone is not the idle close: wait for the close count.
	closed := srv.Profile().Counter(metrics.MetricConnsClosed)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (ts.ConnCount() > 0 || closed.Value() == 0) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := ts.ConnCount(); got != 0 {
		t.Errorf("idle connection not destroyed: %d live", got)
	}
	if closed.Value() == 0 {
		t.Error("close counter zero")
	}
}

// streamArchs are the two stream architectures the stream server serves.
var streamArchs = []Architecture{ArchTCP, ArchThreaded}

// TestThreadedDialsContactWhenNoConn forces the ToAddr dial path: the
// callee's binding is installed with no Source, so delivery must dial the
// callee's listener. On the TCP architecture the dialing worker also hands
// the connection to the supervisor.
func TestThreadedDialsContactWhenNoConn(t *testing.T) {
	for _, arch := range streamArchs {
		t.Run(string(arch), func(t *testing.T) {
			srv := startServer(t, Config{Arch: arch, Workers: 2})

			callee, err := phone.New(phone.Config{
				Transport: transport.TCP, ProxyAddr: srv.Addr(), Domain: testDomain, User: "user1",
				ResponseTimeout: 2 * time.Second,
			}, phone.Callee)
			if err != nil {
				t.Fatal(err)
			}
			defer callee.Close()
			if err := callee.Register(); err != nil {
				t.Fatal(err)
			}
			// Replace the binding with a Source-less one so connection reuse
			// is impossible and the proxy must dial the contact listener.
			srv.Location().Register("user1@"+testDomain, location.Binding{
				Contact:   callee.Contact(),
				Transport: string(transport.TCP),
			}, time.Hour, time.Now())

			caller, err := phone.New(phone.Config{
				Transport: transport.TCP, ProxyAddr: srv.Addr(), Domain: testDomain, User: "user0",
				ResponseTimeout: 2 * time.Second,
			}, phone.Caller)
			if err != nil {
				t.Fatal(err)
			}
			defer caller.Close()
			if err := caller.Register(); err != nil {
				t.Fatal(err)
			}
			if err := caller.Call("user1"); err != nil {
				t.Fatalf("call via dialed contact: %v", err)
			}
		})
	}
}

func TestThreadedSenderRejectsWrongOrigin(t *testing.T) {
	for _, arch := range streamArchs {
		t.Run(string(arch), func(t *testing.T) {
			srv := startServer(t, Config{Arch: arch, Workers: 1})
			w := srv.(*streamServer).workers[0]
			m := sipmsg.NewResponse(&sipmsg.Message{IsRequest: true, Method: sipmsg.OPTIONS}, sipmsg.StatusOK, "t")
			if err := w.sender.ToOrigin(42, m); err == nil {
				t.Error("integer origin accepted")
			}
		})
	}
}

func TestTCPServerAccessorsViaInterface(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchTCP, Workers: 1})
	if srv.Engine() == nil || srv.Location() == nil {
		t.Error("tcp accessors nil")
	}
}

// TestStreamServerQuiescence runs connection churn through each stream
// architecture, closes the server, and checks that nothing it started
// outlives it: every goroutine exits, every connection object is
// destroyed exactly once, and every fd handle the supervisor issued is
// closed.
func TestStreamServerQuiescence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"tcp", Config{Arch: ArchTCP, IPCMode: ipc.ModeUnix, FDCache: true}},
		{"threaded", Config{Arch: ArchThreaded}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := tc.cfg
			cfg.Workers = 4
			cfg.ConnMgr = connmgr.KindPQueue
			cfg.IdleTimeout = 200 * time.Millisecond
			cfg.SupervisorGrace = 100 * time.Millisecond
			cfg.IdleCheckInterval = 50 * time.Millisecond
			srv := startServer(t, cfg)
			// ops/conn = 4 → every caller reconnects every two calls.
			res := runLoad(t, srv, transport.TCP, 8, 8, 4)
			assertClean(t, res, 64)
			if res.Reconnects == 0 {
				t.Error("no reconnects despite ops/conn churn")
			}
			prof := srv.Profile()
			if issued, _ := testutil.HandleLedger(prof); cfg.Arch == ArchTCP && issued == 0 {
				t.Error("no fd handles issued: the IPC path was not exercised")
			}
			srv.Close()

			testutil.CheckGoroutines(t, before)
			if n := srv.(*streamServer).ConnCount(); n != 0 {
				t.Errorf("%d connections left in the table after Close", n)
			}
			accepted := prof.Counter(metrics.MetricConnsAccepted).Value()
			closed := prof.Counter(metrics.MetricConnsClosed).Value()
			if accepted != closed {
				t.Errorf("conn.accepted = %d, conn.closed = %d", accepted, closed)
			}
			testutil.CheckHandleLedger(t, prof)
		})
	}
}
