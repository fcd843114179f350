// Command perfbench is gosip's benchmark. It runs one closed-loop SIP
// workload against the proxy, which runs as a separate child process (this
// binary re-executed in the server role) reached over loopback; it checks
// every operation and, after each proxy process, the proxy's quiescence
// ledger, and prints every metric by name with its unit. Run it from the
// repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload udp_calls --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it makes the end-to-end run: fixed-size windows on a
// series of freshly set-up proxy processes until --seconds have been
// measured, each metric the median over the windows, and the time-based
// ones scaled to a reference host speed (see calibrate.go). With --trace 1
// it makes the traced run instead — an untraced and a traced half plus a
// replay of the workload's messages through each layer — and reports the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// The process exits non-zero when any operation fails or a ledger shows a
// leak. Run records and replay spans go under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if os.Getenv(roleEnv) == "server" {
		os.Exit(serverMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// runsDir is where run records and replay spans go, under --out.
const runsDir = "perfbench-runs"

// options are the command-line settings of one run.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
	inject   injection
	// windowOps is how many driver operations one end-to-end window runs.
	windowOps int
	// cpu is the core the generator and the proxy child share, -1 for
	// unpinned.
	cpu int
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: udp_calls, tcp_calls or udp_register")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end run; 1: traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for run records and spans")
	inject := fs.String("inject", "", "deliberate fault for the self-test: unprovisioned-callee or wrong-password")
	fs.IntVar(&o.windowOps, "window-ops", 0, "operations per measured window (0: the workload's own)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return o, err
	}
	o.workload = w
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 || o.windowOps < 0 {
		return o, fmt.Errorf("--seconds must be positive and --window-ops not negative")
	}
	if o.windowOps == 0 {
		o.windowOps = w.windowOps
	}
	switch inj := injection(*inject); inj {
	case injectNone, injectUnprovisionedCallee, injectWrongPassword:
		o.inject = inj
	default:
		return o, fmt.Errorf("unknown --inject %q", *inject)
	}
	return o, nil
}

// outcome is one run's result.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
	values    map[string]float64
	// raw holds the time-based end-to-end metrics as measured, before
	// scaling by slowdown to the reference host speed.
	raw      map[string]float64
	slowdown float64
	samples  int // completed operations behind the latency percentiles
	record   map[string]any
}

func benchMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o.cpu = benchCPU()
	if o.cpu >= 0 {
		if err := pinProcess(o.cpu); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: pin generator:", err)
			return 1
		}
	}
	in := makeInputs(o.workload, o.seed)
	var out outcome
	if o.trace {
		out, err = tracedRun(o, in)
	} else {
		out, err = endToEndRun(o, in)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out.record["seed"] = o.seed
	out.record["workload"] = o.workload.name
	out.record["trace"] = o.trace
	out.record["nproc"] = runtime.NumCPU()
	out.record["gomaxprocs_generator"] = runtime.GOMAXPROCS(0)
	out.record["cpu_placement"] = "unpinned"
	if o.cpu >= 0 {
		out.record["cpu_placement"] = fmt.Sprintf("proxy and generator share cpu %d", o.cpu)
	}
	out.record["go_version"] = runtime.Version()
	out.record["kernel"] = kernelRelease()
	out.record["network"] = "loopback (127.0.0.1): generator and proxy are separate processes on one host"
	out.record["latency_samples"] = out.samples
	out.record["metrics"] = out.values
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload.name, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if err := writeJSON(filepath.Join(o.out, runsDir, name), out.record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
		return 1
	}
	report(stdout, out, defs)
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate: %d of %d operations failed; first: %v\n", out.failed, out.attempted, out.firstErr)
		return 1
	}
	return 0
}

// report prints the run record and every metric by name with its unit,
// then the result line.
func report(w io.Writer, out outcome, defs []metricDef) {
	keys := make([]string, 0, len(out.record))
	for k := range out.record {
		switch k {
		case "metrics", "metrics_raw", "ledgers", "windows", "windows_raw", "kernel_ns":
			// Printed as metric lines, or too long for a header line; the
			// run record file keeps them.
		default:
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %v\n", k, out.record[k])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.values[d.name]
		metrics[d.name] = value{Value: v, Unit: d.unit}
		note := ""
		if timeBased[d.name] && out.raw != nil {
			note = fmt.Sprintf("  (as measured %.4f on a host %.3fx the reference time)", out.raw[d.name], out.slowdown)
		}
		if strings.HasPrefix(d.name, "latency_") {
			note += fmt.Sprintf("  (n=%d)", out.samples)
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", d.name, v, d.unit, note)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	fmt.Fprintln(w, string(line))
}

// Window shape of the end-to-end run. Each session is a freshly started
// and set-up proxy process; each of its windows is a fixed number of
// operations with the calibration kernel timed on either side. Sessions
// repeat until the measured time reaches --seconds.
const (
	windowsPerSession = 8
	minSessions       = 3
	maxSessions       = 60
)

// endToEndRun reports, for each end-to-end metric, the median over every
// window of the run. Several processes per run average out per-process
// effects (heap layout, map seeds); short windows with their own
// calibration follow the host's speed as it drifts. The latency
// percentiles are taken over every operation of the run, each scaled by its
// window's calibration: a window's own p99 rests on a few samples and
// swings with whether a GC cycle fell inside it. setup_s is the median over
// sessions; server_rss_mb is the proxy's peak RSS since it started, read at
// the end of each window, and so a fixed amount of work into its session.
func endToEndRun(o options, in inputs) (outcome, error) {
	var (
		normWin = map[string][]float64{}
		rawWin  = map[string][]float64{}
		cal     []float64
		ledgers []ledger
		pooled  measured
		normLat []int64
		proxyGP int
		elapsed time.Duration
	)
	record := func(raw, norm map[string]float64) {
		for k := range raw {
			rawWin[k] = append(rawWin[k], raw[k])
			normWin[k] = append(normWin[k], norm[k])
		}
	}
	for n := 0; n < maxSessions && (n < minSessions || elapsed < secondsOf(o.seconds)); n++ {
		s, err := setUp(o, in, false)
		if err != nil {
			return outcome{}, err
		}
		proxyGP = s.child.ready.GoMaxProcs
		for k := 0; k < windowsPerSession; k++ {
			m, err := s.measure(o.windowOps)
			if err != nil {
				s.abort()
				return outcome{}, err
			}
			elapsed += m.res.wall
			cal = append(cal, m.calNs)
			raw, norm := endToEndValues(m)
			if k == 0 {
				setup := s.setup.Seconds()
				record(map[string]float64{"setup_s": setup},
					map[string]float64{"setup_s": setup / (m.calBefore / refKernelNs)})
			}
			record(raw, norm)
			pooled.add(m)
			for _, ns := range m.res.latencyNs {
				normLat = append(normLat, int64(float64(ns)/m.slowdown()))
			}
		}
		l, err := s.tearDown()
		if err != nil {
			return outcome{}, err
		}
		ledgers = append(ledgers, l)
	}
	v, raw := map[string]float64{}, map[string]float64{}
	for k := range normWin {
		v[k], raw[k] = median(normWin[k]), median(rawWin[k])
	}
	sortNs(pooled.res.latencyNs)
	sortNs(normLat)
	for name, q := range map[string]float64{"latency_p50_us": 0.50, "latency_p99_us": 0.99} {
		v[name], raw[name] = quantile(normLat, q)/1e3, quantile(pooled.res.latencyNs, q)/1e3
	}
	// A failed operation anywhere counts, whatever the median window says.
	v["success_ratio"] = ratio(float64(pooled.res.attempted-pooled.res.failed), float64(pooled.res.attempted))
	raw["success_ratio"] = v["success_ratio"]
	rec := map[string]any{
		"gomaxprocs_proxy": proxyGP,
		"sessions":         len(ledgers),
		"windows":          normWin,
		"windows_raw":      rawWin,
		"metrics_raw":      raw,
		"kernel_ns":        cal,
		"ledgers":          ledgers,
		"ops":              pooled.res.ops,
		"measured_s":       elapsed.Seconds(),
	}
	addSaturation(rec, o.workload, pooled)
	return outcome{
		attempted: pooled.res.attempted, failed: pooled.res.failed, firstErr: pooled.res.firstErr,
		values: v, raw: raw, slowdown: median(cal) / refKernelNs,
		samples: len(normLat), record: rec,
	}, nil
}

// tracedRun measures half the time untraced and half with the in-server
// tracer on, each on one proxy process in windows like the end-to-end
// run's, then replays the workload through each layer.
func tracedRun(o options, in inputs) (outcome, error) {
	half := secondsOf(o.seconds / 2)
	// session runs windows for half the time and returns them pooled, with
	// the median normalized rate over the windows.
	proxyGP := 0
	session := func(traced bool) (measured, float64, ledger, error) {
		var pooled measured
		var rates []float64
		s, err := setUp(o, in, traced)
		if err != nil {
			return pooled, 0, ledger{}, err
		}
		proxyGP = s.child.ready.GoMaxProcs
		for pooled.res.wall < half {
			m, err := s.measure(o.windowOps)
			if err != nil {
				s.abort()
				return pooled, 0, ledger{}, err
			}
			rates = append(rates, normRate(m))
			pooled.add(m)
		}
		l, err := s.tearDown()
		return pooled, median(rates), l, err
	}
	mu, rateU, lu, err := session(false)
	if err != nil {
		return outcome{}, err
	}
	mt, rateT, lt, err := session(true)
	if err != nil {
		return outcome{}, err
	}
	pending := int(mu.server.Gauges["timers.pending"])
	rep, err := runReplay(o.workload, in, pending)
	if err != nil {
		return outcome{}, err
	}
	spanFile := filepath.Join(o.out, runsDir, fmt.Sprintf("%s-seed%d-spans.json", o.workload.name, o.seed))
	if err := writeSpans(spanFile, rep.spans); err != nil {
		return outcome{}, err
	}
	v := perLayerValues(o.workload, mu, mt, rep)
	v["trace.overhead_pct"] = 100 * ratio(rateU-rateT, rateU)
	rec := map[string]any{
		"gomaxprocs_proxy":       proxyGP,
		"ledgers":                []ledger{lu, lt},
		"ops_untraced":           mu.res.ops,
		"ops_traced":             mt.res.ops,
		"ops_per_s_untraced":     rateU,
		"ops_per_s_traced":       rateT,
		"replay_spans":           spanFile,
		"replay_allocs_per_kind": rep.allocs,
		"traced_timelines":       mt.server.Trace.Traces,
	}
	addSaturation(rec, o.workload, mu)
	failed := mu.res.failed + mt.res.failed
	firstErr := mu.res.firstErr
	if firstErr == nil {
		firstErr = mt.res.firstErr
	}
	return outcome{
		attempted: mu.res.attempted + mt.res.attempted, failed: failed, firstErr: firstErr,
		values: v, samples: len(mu.res.latencyNs), record: rec,
	}, nil
}

func rate(m measured) float64 { return ratio(float64(m.res.ops), m.res.wall.Seconds()) }

// normRate is rate scaled to the reference host speed.
func normRate(m measured) float64 { return rate(m) * m.slowdown() }

// slowdown is how much slower than the reference host the window's core
// ran, from the calibration kernel timed around it.
func (m measured) slowdown() float64 {
	if m.calNs <= 0 {
		return 1
	}
	return m.calNs / refKernelNs
}

// timeBased are the end-to-end metrics scaled to the reference host speed.
var timeBased = map[string]bool{
	"ops_per_s": true, "latency_p50_us": true, "latency_p99_us": true,
	"server_cpu_us_per_op": true, "setup_s": true,
}

// endToEndValues returns a window's end-to-end metrics as measured, and
// with the time-based ones scaled to the reference host speed.
func endToEndValues(m measured) (raw, norm map[string]float64) {
	ops := float64(m.res.ops)
	lat := m.res.latencyNs
	raw = map[string]float64{
		"ops_per_s":            rate(m),
		"latency_p50_us":       quantile(lat, 0.50) / 1e3,
		"latency_p99_us":       quantile(lat, 0.99) / 1e3,
		"server_cpu_us_per_op": ratio(float64(m.server.CPUNs)/1e3, ops),
		"server_allocs_per_op": ratio(float64(m.server.Mallocs), ops),
		"server_bytes_per_op":  ratio(float64(m.server.Bytes), ops),
		"server_rss_mb":        float64(m.server.RSSPeakKB) / 1024,
		"success_ratio":        ratio(float64(m.res.attempted-m.res.failed), float64(m.res.attempted)),
	}
	k := m.slowdown()
	norm = make(map[string]float64, len(raw))
	for name, v := range raw {
		norm[name] = v
	}
	norm["ops_per_s"] *= k
	for _, name := range []string{"latency_p50_us", "latency_p99_us", "server_cpu_us_per_op"} {
		norm[name] /= k
	}
	return raw, norm
}

func perLayerValues(w workload, mu, mt measured, rep replayResult) map[string]float64 {
	ops := float64(mu.res.ops)
	c, t, h := mu.server.Counters, mu.server.Timers, mu.server.Hists
	perOp := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += c[name]
		}
		return ratio(float64(n), ops)
	}
	share := func(hit, miss string) float64 {
		return ratio(float64(c[hit]), float64(c[hit]+c[miss]))
	}
	v := map[string]float64{
		"sipmsg.parse_ns":                rep.self["sipmsg.Parse"],
		"sipmsg.parse_allocs":            rep.parseAlloc,
		"sipmsg.serialize_ns":            rep.self["sipmsg.AppendTo"],
		"sipmsg.frame_ns":                rep.self["sipmsg.Reader.ReadMessage"],
		"stage.parse_ns":                 h["stage.parse"].meanNs(),
		"transaction.txn_per_op":         perOp("txn.created"),
		"transaction.match_ns":           rep.self["transaction.MatchParts"],
		"transaction.retransmits_per_op": perOp("txn.retransmits", "txn.final_retransmits"),
		"timerlist.schedule_cancel_ns":   rep.self["timerlist.ScheduleCancel"],
		"location.lookup_ns":             rep.self["location.LookupOne"],
		"location.register_ns":           rep.self["location.RegisterContact"],
		"location.writes_per_op":         perOp("location.registered", "location.refreshed", "location.deregistered"),
		"userdb.lookup_ns":               rep.self["userdb.Lookup"],
		"userdb.authcache_hit_ratio":     share("authcache.hits", "authcache.misses"),
		"proxy.handle_self_ns":           rep.handleSelf,
		"proxy.handle_allocs":            rep.allocs["all"],
		"proxy.messages_per_op":          perOp("proxy.messages"),
		"proxy.absorbed_per_op":          perOp("proxy.absorbed"),
		"ipc.fd_requests_per_op":         perOp("ipc.fd_requests"),
		"ipc.fd_request_ns":              t["ipc.fd_request"].meanNs(),
		"fdcache.hit_ratio":              share("fdcache.hits", "fdcache.misses"),
		"connmgr.idle_scan_ns":           t["connmgr.idle_scan"].meanNs(),
		"connmgr.scan_visits_per_op":     perOp("connmgr.scan_visits"),
		"conn.accepted_per_op":           perOp("conn.accepted"),
		"core.supervisor_ns":             h["stage.supervisor"].meanNs(),
		"transport.udp_msgs_per_syscall": ratio(float64(c["udp.recv_msgs"]+c["udp.send_msgs"]), float64(c["udp.recv_syscalls"]+c["udp.send_syscalls"])),
		"transport.tcp_msgs_per_write":   ratio(float64(c["tcp.write_msgs"]), float64(c["tcp.write_syscalls"])),
		"stage.send_ns":                  h["stage.send"].meanNs(),
		"core.process_ns":                h["stage.process"].meanNs(),
		"runtime.gc_cpu_fraction":        ratio(mu.server.GCCPUSec*1e9, float64(mu.server.CPUNs)),
		"runtime.gc_per_kop":             ratio(float64(mu.server.NumGC)*1000, ops),
		"runtime.heap_inuse_mb":          float64(mu.server.HeapInuse) / (1 << 20),
		"phone.client_cpu_us_per_op":     ratio(float64(mu.clientCPU)/1e3, ops),
		"phone.client_allocs_per_op":     ratio(float64(mu.clientMal), ops),
	}
	for _, k := range handleKinds {
		v["proxy.handle_self_ns."+k] = rep.self["proxy.Handle."+k]
	}
	if tr := mt.server.Trace; tr != nil {
		v["trace.coverage"] = tr.Coverage
		v["core.queue_wait_ns"] = tr.StageMeanNs["queue"]
		for _, st := range []string{"parse", "txn_match", "location", "db_lookup", "fd_cache_hit", "fd_ipc", "send", "wait_down"} {
			v["trace."+st+"_ns"] = tr.StageMeanNs[st]
		}
	}
	return v
}

// Generator-saturation limits. A run is flagged when the generator uses
// most of a core, or when tcp_calls' fd traffic leaves the range steady
// runs of this benchmark show (0.0174 to 0.0181 fd requests and about 2.61
// cache hits per op, hit ratio 0.9933): a number the rig moved must not
// read as a program change.
const (
	saturatedCores = 0.85
	fdReqPerOpLo   = 0.014
	fdReqPerOpHi   = 0.022
	fdHitRatioLo   = 0.985
)

func addSaturation(rec map[string]any, w workload, m measured) {
	var reasons []string
	ops := float64(m.res.ops)
	cores := ratio(float64(m.clientCPU), float64(m.res.wall))
	if cores >= saturatedCores {
		reasons = append(reasons, fmt.Sprintf("generator used %.2f cores", cores))
	}
	if w.runs("ipc") {
		c := m.server.Counters
		fd := ratio(float64(c["ipc.fd_requests"]), ops)
		hit := ratio(float64(c["fdcache.hits"]), float64(c["fdcache.hits"]+c["fdcache.misses"]))
		if fd < fdReqPerOpLo || fd > fdReqPerOpHi {
			reasons = append(reasons, fmt.Sprintf("ipc.fd_requests_per_op %.4f outside [%g, %g]", fd, fdReqPerOpLo, fdReqPerOpHi))
		}
		if hit < fdHitRatioLo {
			reasons = append(reasons, fmt.Sprintf("fdcache.hit_ratio %.4f below %g", hit, fdHitRatioLo))
		}
		rec["fd_requests_per_op"] = fd
		rec["fdcache_hits_per_op"] = ratio(float64(c["fdcache.hits"]), ops)
	}
	rec["generator_cores"] = cores
	rec["generator_saturated"] = len(reasons) > 0
	if len(reasons) > 0 {
		rec["generator_saturated_because"] = strings.Join(reasons, "; ")
	}
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
