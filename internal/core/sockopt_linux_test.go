//go:build linux

package core

import (
	"crypto/tls"
	"net"
	"syscall"
	"testing"

	"gosip/internal/transport"
)

// streamSockopts reads TCP_NODELAY, SO_RCVBUF and SO_SNDBUF from the TCP
// socket under sc, looking through a TLS layer.
func streamSockopts(t *testing.T, sc *transport.StreamConn) (nodelay, rcv, snd int) {
	t.Helper()
	nc := sc.NetConn()
	if tc, ok := nc.(*tls.Conn); ok {
		nc = tc.NetConn()
	}
	tcp, ok := nc.(*net.TCPConn)
	if !ok {
		t.Fatalf("stream conn wraps %T, want *net.TCPConn", nc)
	}
	rc, err := tcp.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		if nodelay, serr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY); serr != nil {
			return
		}
		if rcv, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF); serr != nil {
			return
		}
		snd, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	if err != nil || serr != nil {
		t.Fatalf("getsockopt: %v %v", err, serr)
	}
	return nodelay, rcv, snd
}

// TestStreamSocketOptions reads the socket options back from accepted,
// dialed and TLS-dialed stream connections: each must have Nagle off and
// the configured SoRcvBuf/SoSndBuf. The sizes are small enough that no
// default rmem_max/wmem_max clamps them, so Linux reports exactly double
// the request (its bookkeeping overhead) and neither matches the kernel's
// TCP defaults.
func TestStreamSocketOptions(t *testing.T) {
	const rcvBuf, sndBuf = 32 << 10, 48 << 10
	settings, _ := tlsFixture(t, false)
	for _, tc := range []struct {
		name string
		tls  *TLSSettings
		dial bool
	}{
		{"accepted", nil, false},
		{"dialed", nil, true},
		{"tls-accepted", settings, false},
		{"tls-dialed", settings, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := newSubstrate(Config{SoRcvBuf: rcvBuf, SoSndBuf: sndBuf, TLS: tc.tls}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			defer sub.close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					close(accepted)
					return
				}
				if tc.dial && sub.tls != nil {
					// Serve the dialer's handshake.
					srv := sub.tls.Server(nc)
					if _, err := sub.tls.Handshake(srv); err != nil {
						srv.Close()
						close(accepted)
						return
					}
					nc = srv
				}
				accepted <- nc
			}()

			var sc *transport.StreamConn
			if tc.dial {
				sc, _, err = sub.dialStream(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				if peer, ok := <-accepted; ok {
					defer peer.Close()
				}
			} else {
				cl, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				nc, ok := <-accepted
				if !ok {
					t.Fatal("accept failed")
				}
				sc = sub.wrapStream(nc)
			}
			defer sc.Close()

			nodelay, rcv, snd := streamSockopts(t, sc)
			if nodelay == 0 {
				t.Error("TCP_NODELAY is off")
			}
			if rcv != 2*rcvBuf {
				t.Errorf("SO_RCVBUF = %d, want %d", rcv, 2*rcvBuf)
			}
			if snd != 2*sndBuf {
				t.Errorf("SO_SNDBUF = %d, want %d", snd, 2*sndBuf)
			}
		})
	}
}
