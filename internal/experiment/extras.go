package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/transaction"
	"gosip/internal/transport"
)

// ProfileReport reproduces the paper's OProfile observations (§5.1–5.3):
// the share of busy time spent blocked in the fd-request IPC with and
// without the fd cache (paper: ~12% → ~4.6% on the persistent workload),
// and the growth of idle-scan work under connection churn with the scanner
// versus the priority queue.
type ProfileReport struct {
	// IPCPercentBaseline and IPCPercentFDCache are IPC time as % of total
	// worker busy time (process+send) on the persistent workload.
	IPCPercentBaseline float64
	IPCPercentFDCache  float64
	// ScanVisitsScan and ScanVisitsPQueue are idle-scan object visits on
	// the 50 ops/conn workload for the two strategies (both with the fd
	// cache enabled, isolating the Figure 5 variable).
	ScanVisitsScan   int64
	ScanVisitsPQueue int64
	// ScanTimeScan and ScanTimePQueue are the corresponding scan times.
	ScanTimeScan   time.Duration
	ScanTimePQueue time.Duration
}

// busyOf approximates server busy time as worker processing plus send time
// plus supervisor work — the denominator for profile percentages.
func busyOf(s metrics.Snapshot) time.Duration {
	return s.Timers[metrics.MetricProcessTime].Total +
		s.Timers[metrics.MetricSupervisorWork].Total +
		s.Timers[metrics.MetricIPCTime].Total
}

// RunProfile executes the four runs and assembles the report. clients
// picks one client count (e.g. the middle of the scale).
func RunProfile(sc Scale, clients int, progress func(string)) (*ProfileReport, error) {
	persistent := Workload{Name: "TCP persistent", Transport: transport.TCP, OpsPerConn: 0}
	churn := Workload{Name: "TCP 50 ops/conn", Transport: transport.TCP, OpsPerConn: 50}

	cells, err := runVariants("profile", []variantRow{
		{"persistent baseline", persistent, figureVariant(false, connmgr.KindScan)},
		{"persistent fd-cache", persistent, figureVariant(true, connmgr.KindScan)},
		{"50 ops/conn scan", churn, figureVariant(true, connmgr.KindScan)},
		{"50 ops/conn pqueue", churn, figureVariant(true, connmgr.KindPQueue)},
	}, sc, clients, progress)
	if err != nil {
		return nil, err
	}
	base, cached, scan, pq := cells[0], cells[1], cells[2], cells[3]

	rep := &ProfileReport{
		IPCPercentBaseline: base.Snapshot.PercentOf(metrics.MetricIPCTime, busyOf(base.Snapshot)),
		IPCPercentFDCache:  cached.Snapshot.PercentOf(metrics.MetricIPCTime, busyOf(cached.Snapshot)),
		ScanVisitsScan:     scan.Snapshot.Counters[metrics.MetricIdleScanVisits],
		ScanVisitsPQueue:   pq.Snapshot.Counters[metrics.MetricIdleScanVisits],
		ScanTimeScan:       scan.Snapshot.Timers[metrics.MetricIdleScanTime].Total,
		ScanTimePQueue:     pq.Snapshot.Timers[metrics.MetricIdleScanTime].Total,
	}
	return rep, nil
}

// String renders the report against the paper's numbers.
func (r *ProfileReport) String() string {
	var b strings.Builder
	b.WriteString("Profile reproduction (paper §5.1–5.3):\n")
	fmt.Fprintf(&b, "  time blocked in fd-request IPC, persistent workload:\n")
	fmt.Fprintf(&b, "    baseline: %5.1f%% of busy time   (paper: ~12.0%%)\n", r.IPCPercentBaseline)
	fmt.Fprintf(&b, "    fd cache: %5.1f%% of busy time   (paper: ~4.6%%)\n", r.IPCPercentFDCache)
	fmt.Fprintf(&b, "  idle-connection search, 50 ops/conn workload:\n")
	fmt.Fprintf(&b, "    scan:   %12d objects visited, %v in scan\n", r.ScanVisitsScan, r.ScanTimeScan.Round(time.Millisecond))
	fmt.Fprintf(&b, "    pqueue: %12d objects visited, %v in scan\n", r.ScanVisitsPQueue, r.ScanTimePQueue.Round(time.Millisecond))
	return b.String()
}

// RunPriority reproduces §4.3: the supervisor starvation effect. The
// paper saw 40–100% higher TCP throughput after boosting the supervisor's
// scheduling priority to -20. It measures TCP persistent throughput with
// the boosted
// supervisor (no penalty) and the starved one (per-request penalty).
func RunPriority(sc Scale, clients int, penalty time.Duration, progress func(string)) (boosted, starved float64, err error) {
	w := Workload{Name: "TCP persistent", Transport: transport.TCP}
	supervisor := func(p time.Duration) Variant {
		return func(w Workload, sc Scale) core.Config {
			cfg := baseConfig(w, sc)
			cfg.ConnMgr = connmgr.KindScan
			cfg.SupervisorPenalty = p
			return cfg
		}
	}
	cells, err := runVariants("priority", []variantRow{
		{"boosted", w, supervisor(0)},
		{fmt.Sprintf("starved (%v penalty)", penalty), w, supervisor(penalty)},
	}, sc, clients, progress)
	if err != nil {
		return 0, 0, err
	}
	return cells[0].Result.Throughput, cells[1].Result.Throughput, nil
}

// RunArchitectures compares the §6 alternatives on one workload: the fixed
// TCP architecture (fd cache + pqueue), the multi-threaded shared address
// space, the SCTP-style message transport, and the UDP reference.
func RunArchitectures(sc Scale, clients int, w Workload, progress func(string)) (map[string]float64, error) {
	udp := Workload{Name: "UDP", Transport: transport.UDP}
	cells, err := runVariants("arch", []variantRow{
		{"TCP fixed (fdcache+pq)", w, figureVariant(true, connmgr.KindPQueue)},
		{"Threaded (§6)", w, func(w Workload, sc Scale) core.Config {
			cfg := baseConfig(w, sc)
			cfg.Arch = core.ArchThreaded
			cfg.ConnMgr = connmgr.KindPQueue
			return cfg
		}},
		{"SCTP-sim (§6)", Workload{Name: "SCTP-sim", Transport: transport.UDP}, func(w Workload, sc Scale) core.Config {
			cfg := baseConfig(w, sc)
			cfg.Arch = core.ArchSCTP
			return cfg
		}},
		{"UDP", udp, baseConfig},
	}, sc, clients, progress)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cells))
	for _, c := range cells {
		out[c.row] = c.Result.Throughput
	}
	return out, nil
}

// RunScenarios compares the three SIP server roles of §2 and the related
// work (Nahum et al.): proxying, proxying with digest authentication, and
// redirection, all over UDP at one client count. The expected shape:
// redirect > proxy > proxy+auth, with authentication the most expensive
// configuration because of its per-request database verification.
func RunScenarios(sc Scale, clients int, progress func(string)) (map[string]float64, error) {
	calls := loadgen.Config{
		Transport:       transport.UDP,
		Pairs:           clients,
		CallsPerCaller:  sc.CallsPerCaller,
		ResponseTimeout: sc.ResponseTimeout,
	}
	// Registration: re-REGISTER loops (one op per REGISTER).
	registrations := calls
	registrations.Scenario = loadgen.ScenarioRegistrations
	entries := []struct {
		name string
		role func(*core.Config)
		load loadgen.Config
	}{
		{"proxy", func(*core.Config) {}, calls},
		{"proxy+auth", func(cfg *core.Config) { cfg.Auth = true }, calls},
		{"redirect", func(cfg *core.Config) { cfg.Redirect = true }, calls},
		{"registration", func(*core.Config) {}, registrations},
	}
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		cfg := baseConfig(Workload{Name: "UDP", Transport: transport.UDP}, sc)
		e.role(&cfg)
		run, err := runServer(cfg, e.load)
		if err != nil {
			return nil, fmt.Errorf("scenarios (%s): %w", e.name, err)
		}
		out[e.name] = run.res.Throughput
		if progress != nil {
			progress(fmt.Sprintf("[scenario] %-12s: %s", e.name, run.res))
		}
	}
	return out, nil
}

// RunLoss sweeps datagram loss rates on the stateful UDP proxy, showing
// the cost of reliability-by-retransmission that motivates the stateful
// design (§2): throughput degrades as retransmissions consume capacity,
// but calls keep completing.
func RunLoss(sc Scale, clients int, rates []float64, progress func(string)) (map[float64]loadgen.Result, error) {
	out := make(map[float64]loadgen.Result, len(rates))
	for _, rate := range rates {
		run, err := runServer(core.Config{
			Arch:     core.ArchUDP,
			Workers:  sc.Workers,
			Stateful: true,
			Domain:   "bench.gosip",
			Faults:   core.FaultConfig{DropRx: rate, DropTx: rate, Seed: 1},
			Txn: transaction.Config{
				T1:     60 * time.Millisecond,
				TimerB: 10 * time.Second,
				Linger: 2 * time.Second,
			},
			TimerInterval: 20 * time.Millisecond,
		}, loadgen.Config{
			Transport:       transport.UDP,
			Pairs:           clients,
			CallsPerCaller:  sc.CallsPerCaller / 2,
			ResponseTimeout: 400 * time.Millisecond,
			MaxRetries:      10,
		})
		if err != nil {
			return nil, fmt.Errorf("loss %.0f%%: %w", 100*rate, err)
		}
		out[rate] = run.res
		if progress != nil {
			progress(fmt.Sprintf("[loss] %4.0f%% drop: %s", 100*rate, run.res))
		}
	}
	return out, nil
}
