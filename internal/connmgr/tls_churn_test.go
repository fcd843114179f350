package connmgr

import (
	"crypto/tls"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosip/internal/conn"
	"gosip/internal/transport"
)

// TestConcurrentChurnTLS is TestConcurrentChurn over TLS connections: the
// tracked conns wrap tls.Server state, half of them complete handshakes
// while the other half are abandoned mid-handshake, and collection closes
// connections while their peers' handshakes are still in flight. Run under
// -race this pins down that the managers' tracking structures are
// indifferent to the conn's crypto state and that closing a mid-handshake
// tls.Conn from the reaper is safe.
func TestConcurrentChurnTLS(t *testing.T) {
	cert, pool, err := transport.GenerateSelfSigned("churn.tls.test")
	if err != nil {
		t.Fatalf("GenerateSelfSigned: %v", err)
	}
	srvCtx, err := transport.NewTLSContext(transport.TLSOptions{Cert: cert, RootCAs: pool})
	if err != nil {
		t.Fatalf("server context: %v", err)
	}
	defer srvCtx.Close()
	clientCfg := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1", MinVersion: tls.VersionTLS12}

	fx := newFixture()
	for name, m := range managers(t, fx) {
		m := m
		t.Run(name, func(t *testing.T) {
			const nConns = 32
			var peers sync.WaitGroup
			conns := make([]*conn.TCPConn, nConns)
			for i := range conns {
				c1, c2 := net.Pipe()
				t.Cleanup(func() { c1.Close(); c2.Close() })
				tc := srvCtx.Server(c1)
				conns[i] = fx.table.Insert(transport.NewStreamConn(tc), time.Millisecond)
				m.Add(conns[i])

				// Every conn has a dialing peer; only even conns get a
				// server-side handshake, so odd peers stay blocked
				// mid-handshake until collection closes the server half.
				peers.Add(1)
				go func(nc net.Conn) {
					defer peers.Done()
					cl := tls.Client(nc, clientCfg)
					cl.Handshake() // succeeds or dies with the pipe; either is fine
					cl.Close()
				}(c2)
				if i%2 == 0 {
					peers.Add(1)
					go func(tc net.Conn) {
						defer peers.Done()
						srvCtx.Handshake(tc)
					}(tc)
				}
			}

			var flip atomic.Uint64
			flaky := func(*conn.TCPConn, time.Time) bool { return flip.Add(1)%3 != 0 }

			var mu sync.Mutex
			collected := make(map[conn.ID]int)
			collect := func(c *conn.TCPConn) {
				mu.Lock()
				collected[c.ID()]++
				mu.Unlock()
				// The server's retire path: close regardless of whether the
				// handshake ever completed.
				c.Stream().Close()
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := seed; ; i += 7 {
						select {
						case <-stop:
							return
						default:
						}
						c := conns[i%nConns]
						if i%2 == 0 {
							c.Touch(time.Now(), time.Millisecond)
						} else {
							c.Touch(time.Now(), time.Hour)
						}
					}
				}(g)
			}
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, c := range m.Expired(time.Now().Add(time.Minute), flaky) {
							collect(c)
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nConns/4; i++ {
					select {
					case <-stop:
						return
					default:
					}
					m.Remove(conns[i*4])
					conns[i*4].Stream().Close()
					time.Sleep(time.Millisecond)
				}
			}()

			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()

			deadline := time.Now().Add(5 * time.Second)
			for m.Len() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("manager did not drain: %d still tracked", m.Len())
				}
				for _, c := range m.Expired(time.Now().Add(2*time.Hour), always) {
					collect(c)
				}
			}
			for id, n := range collected {
				if n > 1 {
					t.Errorf("conn %v collected %d times", id, n)
				}
			}
			// Every peer handshake goroutine must unwind once its pipe dies.
			for i := range conns {
				conns[i].Stream().Close()
			}
			done := make(chan struct{})
			go func() { peers.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("peer handshake goroutines did not exit")
			}
		})
	}
}
