package main

// The metric catalogue: every metric the benchmark reports, with its unit
// and direction, and for each per-layer metric the end-to-end metrics and
// workloads it is predicted to move. BENCHMARK.json lists the same names;
// the self-test keeps the two in step.

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// moves is the prediction for a per-layer metric: which end-to-end
	// metrics a change in it should move, on which workloads.
	moves string
}

// The time-based end-to-end metrics (ops_per_s, the latencies,
// server_cpu_us_per_op and setup_s) are scaled to the reference host speed
// by the calibration kernel timed around each window (see calibrate.go);
// the values as measured are printed beside them and kept in the run
// record.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.2},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.2},
	{name: "latency_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "server_cpu_us_per_op", unit: "us/op", better: "lower", bound: 0.2},
	{name: "server_allocs_per_op", unit: "allocs/op", better: "lower", bound: 0.05},
	{name: "server_bytes_per_op", unit: "B/op", better: "lower", bound: 0.05},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.1},
	// The complement of the failure ratio, so the metric is never zero; any
	// failed operation also fails the run.
	{name: "success_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	callsCPU  = "server_cpu_us_per_op, server_allocs_per_op, ops_per_s"
	allServer = "server_cpu_us_per_op, server_allocs_per_op, server_bytes_per_op, ops_per_s, latency_p50_us, latency_p99_us"
)

var perLayer = []metricDef{
	// sipmsg: the largest share on udp_calls.
	{name: "sipmsg.parse_ns", unit: "ns", better: "lower", moves: callsCPU + " on all workloads, most on udp_calls"},
	{name: "sipmsg.parse_allocs", unit: "allocs/msg", better: "lower", moves: "server_allocs_per_op, server_bytes_per_op on all workloads"},
	{name: "sipmsg.serialize_ns", unit: "ns", better: "lower", moves: callsCPU + " on all workloads"},
	{name: "sipmsg.frame_ns", unit: "ns", better: "lower", moves: callsCPU + " on tcp_calls only"},
	{name: "stage.parse_ns", unit: "ns", better: "lower", moves: callsCPU + " on all workloads"},
	// transaction / timerlist.
	{name: "transaction.txn_per_op", unit: "txn/op", better: "lower", moves: "server_cpu_us_per_op on the call workloads"},
	{name: "transaction.match_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op, latency_p50_us on the call workloads"},
	{name: "transaction.retransmits_per_op", unit: "msgs/op", better: "lower", moves: "wasted work, 0 on loopback; latency_p99_us on udp_calls"},
	{name: "timerlist.schedule_cancel_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op, latency_p50_us on udp_calls; no change on tcp_calls, which arms no retransmit timers"},
	// location.
	{name: "location.lookup_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op on the call workloads"},
	{name: "location.register_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op, ops_per_s on udp_register"},
	{name: "location.writes_per_op", unit: "writes/op", better: "lower", moves: "server_cpu_us_per_op on udp_register"},
	// userdb.
	{name: "userdb.lookup_ns", unit: "ns", better: "lower", moves: "ops_per_s, server_cpu_us_per_op on udp_register only"},
	{name: "userdb.authcache_hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s, server_cpu_us_per_op on udp_register only"},
	// proxy.
	{name: "proxy.handle_self_ns", unit: "ns", better: "lower", moves: allServer + " on the call workloads; less on udp_register"},
	{name: "proxy.handle_self_ns.invite", unit: "ns", better: "lower", moves: allServer + " on the call workloads"},
	{name: "proxy.handle_self_ns.response", unit: "ns", better: "lower", moves: allServer + " on the call workloads"},
	{name: "proxy.handle_self_ns.ack", unit: "ns", better: "lower", moves: allServer + " on the call workloads"},
	{name: "proxy.handle_self_ns.bye", unit: "ns", better: "lower", moves: allServer + " on the call workloads"},
	{name: "proxy.handle_self_ns.register", unit: "ns", better: "lower", moves: "server_cpu_us_per_op, ops_per_s on udp_register"},
	{name: "proxy.handle_allocs", unit: "allocs/msg", better: "lower", moves: "server_allocs_per_op, server_bytes_per_op on all workloads, most on the call workloads"},
	{name: "proxy.messages_per_op", unit: "msgs/op", better: "lower", moves: allServer + " on all workloads"},
	{name: "proxy.absorbed_per_op", unit: "msgs/op", better: "lower", moves: "server_cpu_us_per_op on the call workloads"},
	// ipc / fdcache / connmgr / conn: the Figure 5 machinery.
	{name: "ipc.fd_requests_per_op", unit: "req/op", better: "lower", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	{name: "ipc.fd_request_ns", unit: "ns", better: "lower", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	{name: "fdcache.hit_ratio", unit: "ratio", better: "higher", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	{name: "connmgr.idle_scan_ns", unit: "ns", better: "lower", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	{name: "connmgr.scan_visits_per_op", unit: "visits/op", better: "lower", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	{name: "conn.accepted_per_op", unit: "conns/op", better: "lower", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	{name: "core.supervisor_ns", unit: "ns", better: "lower", moves: "ops_per_s, latency_p99_us on tcp_calls only"},
	// transport.
	{name: "transport.udp_msgs_per_syscall", unit: "msgs/call", better: "higher", moves: "server_cpu_us_per_op on the UDP workloads"},
	{name: "transport.tcp_msgs_per_write", unit: "msgs/call", better: "higher", moves: "server_cpu_us_per_op on tcp_calls"},
	{name: "stage.send_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op, latency_p50_us on all workloads"},
	// core.
	{name: "core.process_ns", unit: "ns", better: "lower", moves: "server_cpu_us_per_op, latency_p50_us on all workloads"},
	{name: "core.queue_wait_ns", unit: "ns", better: "lower", moves: "latency_p99_us on tcp_calls (the UDP workers have no queue)"},
	// runtime of the proxy process.
	{name: "runtime.gc_cpu_fraction", unit: "ratio", better: "lower", moves: "latency_p99_us, server_cpu_us_per_op on all workloads"},
	{name: "runtime.gc_per_kop", unit: "gc/kop", better: "lower", moves: "latency_p99_us, server_cpu_us_per_op on all workloads"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower", moves: "server_rss_mb on all workloads, most on udp_register"},
	// phone: the generator process. Never a server_* metric.
	{name: "phone.client_cpu_us_per_op", unit: "us/op", better: "lower", moves: "ops_per_s and the latencies on all workloads, never a server_* metric"},
	{name: "phone.client_allocs_per_op", unit: "allocs/op", better: "lower", moves: "ops_per_s and the latencies on all workloads, never a server_* metric"},
	// trace: the traced run against the untraced one, and the in-server
	// tracer's per-stage means per traced transaction.
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: tracing is off in the end-to-end runs"},
	{name: "trace.coverage", unit: "ratio", better: "higher", moves: "none: share of each traced transaction's time its spans account for"},
	{name: "trace.parse_ns", unit: "ns", better: "lower", moves: callsCPU + " on all workloads"},
	{name: "trace.txn_match_ns", unit: "ns", better: "lower", moves: "latency_p50_us on the call workloads"},
	{name: "trace.location_ns", unit: "ns", better: "lower", moves: "latency_p50_us on all workloads"},
	{name: "trace.db_lookup_ns", unit: "ns", better: "lower", moves: "latency_p50_us on udp_register"},
	{name: "trace.fd_cache_hit_ns", unit: "ns", better: "lower", moves: "latency_p50_us on tcp_calls"},
	{name: "trace.fd_ipc_ns", unit: "ns", better: "lower", moves: "latency_p99_us on tcp_calls"},
	{name: "trace.send_ns", unit: "ns", better: "lower", moves: "latency_p50_us on all workloads"},
	{name: "trace.wait_down_ns", unit: "ns", better: "lower", moves: "latency_p50_us on the call workloads (the callee's share)"},
}
