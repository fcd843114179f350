package main

// Host-speed calibration. On a shared virtual host the speed of a core
// drifts by up to 2x over tens of seconds with the neighbours' load, and
// every time-based metric drifts with it. Between measured windows the
// generator times a fixed kernel of the benchmark's own — string keys,
// hashing, map updates, small allocations: the shape of a proxy's work,
// but none of the proxy's code, so no change to the program moves it —
// and the time-based end-to-end metrics are scaled to the speed at which
// the kernel takes refKernelNs.

import (
	"net"
	"strconv"
	"time"
)

// refKernelNs is the reference host's time for one kernel iteration. It
// fixes the scale of the normalized metrics and must never change.
const refKernelNs = 6000.0

var kernelSink int

// kernelIter is one iteration of the calibration kernel.
func kernelIter(m map[string]int, buf []byte, i int) []byte {
	for j := 0; j < 8; j++ {
		buf = strconv.AppendInt(buf[:0], int64(i*8+j)&1023, 10)
		buf = append(buf, "@bench.gosip"...)
		h := uint32(2166136261)
		for _, c := range buf {
			h = (h ^ uint32(c)) * 16777619
		}
		key := string(buf) // one small allocation per key
		m[key] += int(h & 0xff)
	}
	return buf
}

// kernelNs times the kernel for about d and returns ns per iteration. Each
// iteration also sends one datagram to itself over loopback, so the kernel
// covers the network stack the way the workloads do.
func kernelNs(d time.Duration) float64 {
	m := make(map[string]int, 1024)
	buf := make([]byte, 0, 64)
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0
	}
	defer sock.Close()
	self := sock.LocalAddr().(*net.UDPAddr).AddrPort()
	pkt := make([]byte, 512)
	// A few untimed iterations bring the socket and caches up to speed.
	for i := 0; i < 64; i++ {
		buf = kernelIter(m, buf, i)
		_, _ = sock.WriteToUDPAddrPort(pkt, self)
		_, _, _ = sock.ReadFromUDPAddrPort(pkt)
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 16; i++ {
			buf = kernelIter(m, buf, n+i)
			if _, err := sock.WriteToUDPAddrPort(pkt, self); err != nil {
				return 0
			}
			if _, _, err := sock.ReadFromUDPAddrPort(pkt); err != nil {
				return 0
			}
		}
		n += 16
	}
	kernelSink += len(m)
	return float64(time.Since(t0)) / float64(n)
}
