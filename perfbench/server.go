package main

// The server role: the benchmark binary re-executed as a child process that
// runs the proxy under test, so the proxy's CPU, allocations and memory are
// its own and the phones' cost stays in the generator process. The parent
// drives it over stdin/stdout with one JSON message per line.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"gosip/internal/core"
	"gosip/internal/location"
	gmetrics "gosip/internal/metrics"
	"gosip/internal/trace"
)

// Control commands the parent sends.
const (
	cmdBegin   = "begin"   // start of a measured window
	cmdEnd     = "end"     // end of a measured window: reply with its deltas
	cmdQuiesce = "quiesce" // phones are closed: check the ledger, shut down, reply
)

// readyMsg is the child's first line.
type readyMsg struct {
	Addr       string `json:"addr"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// timerDelta and histDelta are a profile timer's and stage histogram's
// growth over a window.
type timerDelta struct {
	TotalNs int64 `json:"total_ns"`
	Count   int64 `json:"count"`
}

type histDelta struct {
	SumNs int64 `json:"sum_ns"`
	Count int64 `json:"count"`
}

func (t timerDelta) meanNs() float64 { return ratio(float64(t.TotalNs), float64(t.Count)) }
func (h histDelta) meanNs() float64  { return ratio(float64(h.SumNs), float64(h.Count)) }

// window is what the proxy process did between begin and end.
type window struct {
	CPUNs     int64                 `json:"cpu_ns"`
	Mallocs   uint64                `json:"mallocs"`
	Bytes     uint64                `json:"bytes"`
	NumGC     uint32                `json:"num_gc"`
	GCCPUSec  float64               `json:"gc_cpu_s"`
	RSSPeakKB int64                 `json:"rss_peak_kb"`
	HeapInuse uint64                `json:"heap_inuse"`
	Counters  map[string]int64      `json:"counters"`
	Timers    map[string]timerDelta `json:"timers"`
	Hists     map[string]histDelta  `json:"hists"`
	Gauges    map[string]float64    `json:"gauges"`
	Trace     *traceSummary         `json:"trace,omitempty"`
}

// traceSummary condenses the flight recorder's retained timelines: per
// stage, the mean time one traced transaction spent in it.
type traceSummary struct {
	Traces      int                `json:"traces"`
	Coverage    float64            `json:"coverage"`
	StageMeanNs map[string]float64 `json:"stage_mean_ns"`
}

// ledger is the quiescence check made after every run.
type ledger struct {
	HandlesIssued     int64    `json:"handles_issued"`
	HandlesClosed     int64    `json:"handles_closed"`
	PoolDropped       int64    `json:"pool_dropped"`
	ParseErrors       int64    `json:"parse_errors"`
	OverloadRejected  int64    `json:"overload_rejected"`
	GoroutinesPreLoad int      `json:"goroutines_preload"`
	GoroutinesAfter   int      `json:"goroutines_after"`
	Violations        []string `json:"violations"`
}

// check fills Violations from the recorded values.
func (l *ledger) check() {
	l.Violations = nil
	if l.HandlesIssued != l.HandlesClosed {
		l.Violations = append(l.Violations, fmt.Sprintf("ipc.handles_issued %d != ipc.handles_closed %d", l.HandlesIssued, l.HandlesClosed))
	}
	if l.PoolDropped != 0 {
		l.Violations = append(l.Violations, fmt.Sprintf("udp.pool_dropped = %d", l.PoolDropped))
	}
	if l.ParseErrors != 0 {
		l.Violations = append(l.Violations, fmt.Sprintf("proxy.parse_errors = %d", l.ParseErrors))
	}
	if l.OverloadRejected != 0 {
		l.Violations = append(l.Violations, fmt.Sprintf("overload.rejected = %d", l.OverloadRejected))
	}
	if l.GoroutinesAfter > l.GoroutinesPreLoad {
		l.Violations = append(l.Violations, fmt.Sprintf("goroutines %d after load, %d before", l.GoroutinesAfter, l.GoroutinesPreLoad))
	}
}

// sample is one reading of the proxy process's cumulative state.
type sample struct {
	cpuNs   int64
	mem     runtime.MemStats
	gcCPU   float64
	profile gmetrics.Snapshot
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func takeSample(srv core.Server) sample {
	var s sample
	s.cpuNs = processCPU()
	runtime.ReadMemStats(&s.mem)
	metrics.Read(gcCPUMetric)
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	s.profile = srv.Profile().Snapshot()
	return s
}

// processCPU is the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssPeakKB reads the process's peak resident set (VmHWM).
func rssPeakKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseInt(string(f[1]), 10, 64)
			return kb
		}
	}
	return 0
}

func diff(srv core.Server, b, e sample) window {
	w := window{
		CPUNs:     e.cpuNs - b.cpuNs,
		Mallocs:   e.mem.Mallocs - b.mem.Mallocs,
		Bytes:     e.mem.TotalAlloc - b.mem.TotalAlloc,
		NumGC:     e.mem.NumGC - b.mem.NumGC,
		GCCPUSec:  e.gcCPU - b.gcCPU,
		RSSPeakKB: rssPeakKB(),
		HeapInuse: e.mem.HeapInuse,
		Counters:  map[string]int64{},
		Timers:    map[string]timerDelta{},
		Hists:     map[string]histDelta{},
		Gauges:    e.profile.Gauges,
	}
	for n, v := range e.profile.Counters {
		w.Counters[n] = v - b.profile.Counters[n]
	}
	for n, t := range e.profile.Timers {
		p := b.profile.Timers[n]
		w.Timers[n] = timerDelta{TotalNs: int64(t.Total - p.Total), Count: t.Count - p.Count}
	}
	for n, h := range e.profile.Histograms {
		d := h.Sub(b.profile.Histograms[n])
		w.Hists[n] = histDelta{SumNs: int64(d.Sum), Count: d.Count}
	}
	if rec := srv.Tracer(); rec != nil {
		w.Trace = summarizeTraces(rec.Snapshot())
	}
	return w
}

// tracedStages are the flight-recorder stages the traced run reports.
var tracedStages = []trace.Stage{
	trace.StageParse, trace.StageQueue, trace.StageTxn, trace.StageLocation,
	trace.StageDBLookup, trace.StageFDCache, trace.StageFDIPC, trace.StageSend,
	trace.StageWaitDown,
}

func summarizeTraces(ts []*trace.Trace) *traceSummary {
	s := &traceSummary{Traces: len(ts), StageMeanNs: map[string]float64{}}
	if len(ts) == 0 {
		return s
	}
	var cov float64
	for _, t := range ts {
		if t.E2E > 0 {
			cov += float64(t.Coverage()) / float64(t.E2E)
		}
		for _, st := range tracedStages {
			s.StageMeanNs[st.String()] += float64(t.StageTotal(st))
		}
	}
	s.Coverage = cov / float64(len(ts))
	for k, v := range s.StageMeanNs {
		s.StageMeanNs[k] = v / float64(len(ts))
	}
	return s
}

// serverMain runs the server role until the parent's quiesce command or
// the control pipe closes.
func serverMain(args []string) int {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	traced := fs.Bool("traced", false, "enable the in-server tracer")
	cpu := fs.Int("cpu", -1, "core to pin the proxy to, -1 for none")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpu >= 0 {
		if err := pinProcess(*cpu); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server: pin:", err)
			return 1
		}
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench server:", err)
		return 2
	}
	if err := serve(w, makeInputs(w, *seed), *traced, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench server:", err)
		return 1
	}
	return 0
}

func serve(w workload, in inputs, traced bool, r io.Reader, out io.Writer) error {
	goroutinesBefore := runtime.NumGoroutine()
	srv, err := core.New(w.serverConfig(traced))
	if err != nil {
		return fmt.Errorf("start proxy: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	srv.DB().ProvisionN(userSpace, domain)
	now := time.Now()
	loc := srv.Location()
	for _, u := range in.prefill {
		loc.RegisterContact(prefillURI(u), location.Binding{
			Contact:   prefillContact(u),
			Transport: "UDP",
			Source:    "192.0.2.10:5060",
		}, time.Hour, now)
	}
	preload := runtime.NumGoroutine()

	enc := json.NewEncoder(out)
	if err := enc.Encode(readyMsg{Addr: srv.Addr(), GoMaxProcs: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	var begin sample
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		switch cmd := sc.Text(); cmd {
		case cmdBegin:
			begin = takeSample(srv)
			if err := enc.Encode(struct{}{}); err != nil {
				return err
			}
		case cmdEnd:
			if err := enc.Encode(diff(srv, begin, takeSample(srv))); err != nil {
				return err
			}
		case cmdQuiesce:
			l := ledger{GoroutinesPreLoad: preload}
			// Connections the phones closed retire asynchronously; give the
			// server a bounded time to wind them down.
			l.GoroutinesAfter = waitGoroutines(preload, 5*time.Second)
			srv.Close()
			closed = true
			prof := srv.Profile()
			l.HandlesIssued = prof.Counter(gmetrics.MetricIPCHandlesIssued).Value()
			l.HandlesClosed = prof.Counter(gmetrics.MetricIPCHandlesClosed).Value()
			l.PoolDropped = prof.Counter(gmetrics.MetricUDPPoolDropped).Value()
			l.ParseErrors = prof.Counter(gmetrics.MetricParseErrors).Value()
			l.OverloadRejected = prof.Counter(gmetrics.MetricOverloadRejected).Value()
			l.check()
			// Shutdown must also release everything the server started.
			if g := waitGoroutines(goroutinesBefore, 5*time.Second); g > goroutinesBefore {
				l.Violations = append(l.Violations, fmt.Sprintf("goroutines %d after shutdown, %d before start", g, goroutinesBefore))
			}
			return enc.Encode(l)
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("control pipe closed before %s", cmdQuiesce)
}

// waitGoroutines polls until the goroutine count is at most target or the
// deadline passes, and returns the last count.
func waitGoroutines(target int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		g := runtime.NumGoroutine()
		if g <= target || time.Now().After(deadline) {
			return g
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
