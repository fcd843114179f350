package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/ipc"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// warmupOps is how many driver operations setup runs before measuring.
const warmupOps = 400

// domain is the SIP domain every workload serves.
const domain = "bench.gosip"

// userSpace is how many subscribers setup provisions; the seed picks the
// phones' user indices from it.
const userSpace = 1000

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// calls selects INVITE/ACK/BYE calls; false means authenticated
	// re-REGISTERs.
	calls bool
	kind  transport.Kind
	// opsPerConn makes TCP callers reconnect after this many operations.
	opsPerConn int
	// prefill is how many resident bindings setup writes into the location
	// store before any phone registers.
	prefill int
	// windowOps is how many driver operations (calls or registrations)
	// one end-to-end window runs, over all drivers: about half a second on
	// the reference host.
	windowOps int
	// layers lists the modules this workload's server path runs; the layer
	// replay skips the others.
	layers []string
}

var workloads = []workload{
	{
		name:      "udp_calls",
		why:       "UDP symmetric workers, stateful, no auth, persistent phones placing INVITE/ACK/BYE calls: the paper's reference cell, message path only",
		calls:     true,
		kind:      transport.UDP,
		windowOps: 1500,
		layers:    []string{"sipmsg", "transaction", "timerlist", "location", "proxy", "transport", "core"},
	},
	{
		name:       "tcp_calls",
		why:        "TCP supervisor/workers in the Figure 5 setup (SCM_RIGHTS, fd cache, pqueue) with callers reconnecting every 50 ops: same SIP work, stream path",
		calls:      true,
		kind:       transport.TCP,
		opsPerConn: 50,
		windowOps:  1500,
		layers:     []string{"sipmsg", "transaction", "timerlist", "location", "proxy", "ipc", "fdcache", "connmgr", "conn", "transport", "core"},
	},
	{
		name:      "udp_register",
		why:       "UDP registrar with digest auth and credential cache over 100,000 prefilled bindings: the only location-write and userdb workload",
		kind:      transport.UDP,
		prefill:   100_000,
		windowOps: 5000,
		layers:    []string{"sipmsg", "location", "userdb", "proxy", "transport", "core"},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runs reports whether the workload's server path runs layer.
func (w workload) runs(layer string) bool {
	for _, l := range w.layers {
		if l == layer {
			return true
		}
	}
	return false
}

// serverConfig is the proxy configuration the child process runs.
func (w workload) serverConfig(traced bool) core.Config {
	cfg := core.Config{
		Addr:     "127.0.0.1:0",
		Stateful: true,
		Domain:   domain,
	}
	switch w.name {
	case "udp_calls":
		cfg.Arch = core.ArchUDP
	case "tcp_calls":
		// The Figure 5 configuration at the experiment harness's scale.
		cfg.Arch = core.ArchTCP
		cfg.IPCMode = ipc.ModeUnix
		cfg.FDCache = true
		cfg.ConnMgr = connmgr.KindPQueue
		cfg.IdleTimeout = 10 * time.Second
		cfg.SupervisorGrace = 5 * time.Second
		cfg.IdleCheckInterval = 100 * time.Millisecond
	case "udp_register":
		cfg.Arch = core.ArchUDP
		cfg.Auth = true
		cfg.DB.Cache = userdb.CacheConfig{Entries: 1 << 17, TTL: time.Minute}
	}
	if traced {
		// Every call sampled; the ring holds enough timelines for stable
		// per-stage means.
		cfg.Trace = trace.Config{Sample: 1, Ring: 4096}
	}
	return cfg
}

// phoneCount is how many phones the generator runs: at most nproc, so at
// most nproc sockets and driving goroutines (a caller/callee pair per two
// cores for calls, one registering phone per core).
func (w workload) phoneCount() int {
	n := runtime.NumCPU()
	if w.calls {
		return 2 * max(1, n/2)
	}
	return max(1, n)
}

// inputs is everything the seed decides.
type inputs struct {
	// users are the phones' user indices: caller/callee pairs for calls
	// (callers at even positions), registering phones otherwise.
	users []int
	// prefill are the resident AORs written during setup.
	prefill []string
}

func makeInputs(w workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	// Users come from the three-digit indices, so every seed's names, and
	// with them every message, have the same length.
	perm := rng.Perm(userSpace - 100)
	in := inputs{}
	for _, i := range perm[:w.phoneCount()] {
		in.users = append(in.users, 100+i)
	}
	if w.prefill > 0 {
		in.prefill = make([]string, w.prefill)
		for i := range in.prefill {
			in.prefill[i] = fmt.Sprintf("pf%x-%d", rng.Uint32(), i)
		}
	}
	return in
}

func userName(i int) string { return userdb.UserName(i) }

// prefillURI is the AOR of a resident binding.
func prefillURI(user string) sipmsg.URI { return sipmsg.URI{User: user, Host: domain} }

// prefillContact is the contact of a resident binding (TEST-NET-1, never
// dialled: resident bindings are never called).
func prefillContact(user string) sipmsg.URI {
	return sipmsg.URI{User: user, Host: "192.0.2.10", Port: 5060}
}
