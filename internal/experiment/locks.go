package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
)

// LocksScale shapes the lock-and-timer sweep: the same closed-loop call
// workload as the figures, run against servers that differ only in the
// synchronization structure of the transaction hot path — timer policy
// (binary heap vs sharded wheel) and transaction-table shard count, on the
// datagram and the threaded stream architecture. The measures of
// interest are ops/s and the contended lock-wait time the server itself
// accounts, variant by variant against the paper-faithful baseline.
type LocksScale struct {
	// Pairs are the offered-load points (caller/callee pairs). Lock
	// contention grows with concurrency, so the last entry should be
	// comfortably past one pair per worker.
	Pairs []int
	// CallsPerCaller is each caller's closed-loop call count.
	CallsPerCaller int
	// Workers is the server worker count.
	Workers int
	// TxnShards are the transaction-table shard counts for the heap rows
	// (1 approximates the old single global map; 0 = the sharded default).
	TxnShards []int
	// TimerShards is the wheel shard count for the wheel rows.
	TimerShards int
	// Linger stretches completed-transaction retention so the standing
	// timer population during the run reaches the tens of thousands the
	// heap-vs-wheel comparison is about (pending ≈ ops/s × Linger).
	Linger time.Duration
	// Reps runs each cell this many times and keeps the median-throughput
	// run, interleaved across cells to spread shared-host noise.
	Reps int
}

// DefaultLocksScale keeps the sweep minutes-scale while still building a
// deep pending-timer population.
func DefaultLocksScale() LocksScale {
	return LocksScale{
		Pairs:          []int{16, 128},
		CallsPerCaller: 50,
		Workers:        4,
		TxnShards:      []int{1, 0},
		TimerShards:    4,
		Linger:         4 * time.Second,
		Reps:           5,
	}
}

// LocksVariant is one server configuration under test.
type LocksVariant struct {
	Name      string
	Arch      core.Architecture
	Transport transport.Kind
	TimerImpl timerlist.Impl
	TxnShards int
}

func txnLabel(n int) string {
	if n <= 0 {
		n = transaction.DefaultShards()
	}
	return fmt.Sprintf("txn%d", n)
}

// variants builds the sweep rows: the stateful UDP proxy (where the Timer
// A/B and linger churn lives) across heap shard counts and the wheel, then
// the threaded server on the heap and the wheel.
func (sc LocksScale) variants() []LocksVariant {
	var vs []LocksVariant
	for _, n := range sc.TxnShards {
		vs = append(vs, LocksVariant{
			Name: "udp/heap/" + txnLabel(n), Arch: core.ArchUDP,
			Transport: transport.UDP, TimerImpl: timerlist.ImplHeap, TxnShards: n,
		})
	}
	vs = append(vs,
		LocksVariant{Name: "udp/wheel/" + txnLabel(0), Arch: core.ArchUDP,
			Transport: transport.UDP, TimerImpl: timerlist.ImplWheel},
		LocksVariant{Name: "threaded/heap", Arch: core.ArchThreaded,
			Transport: transport.TCP, TimerImpl: timerlist.ImplHeap},
		LocksVariant{Name: "threaded/wheel", Arch: core.ArchThreaded,
			Transport: transport.TCP, TimerImpl: timerlist.ImplWheel},
	)
	return vs
}

// LocksCell is one (variant, pairs) measurement with the server-side lock
// and timer accounting harvested after the run.
type LocksCell struct {
	Measured
	Variant LocksVariant
	Pairs   int

	// TimerLockWait / TxnLockWait are total contended wait (the TryLock
	// fast path charges nothing), with the acquisition counts that waited.
	TimerLockWait  time.Duration
	TimerLockWaits int64
	TxnLockWait    time.Duration
	TxnLockWaits   int64

	// Scheduled and Fired are the timer subsystem's lifetime counts;
	// PeakPending and PeakCancelledResident are polled maxima during the
	// run (the heap carries cancelled corpses until they ripen, the wheel
	// reclaims at Cancel so its resident count stays 0).
	Scheduled             int64
	Fired                 int64
	PeakPending           int64
	PeakCancelledResident int64
}

// LockWaitPerOp is the cell's total contended lock wait divided across
// completed operations — the quantity the sharding removes.
func (c LocksCell) LockWaitPerOp() time.Duration {
	if c.Result.Ops == 0 {
		return 0
	}
	return (c.TimerLockWait + c.TxnLockWait) / time.Duration(c.Result.Ops)
}

// LocksReport is the finished sweep.
type LocksReport struct {
	Scale LocksScale
	Cells []LocksCell
}

// Cell returns the measurement for (variant name, pairs), or nil.
func (r *LocksReport) Cell(name string, pairs int) *LocksCell {
	return lookup(r.Cells, name, pairs)
}

// Gains compares, at the highest pair count, the wheel against the heap on
// the UDP rows and on the threaded rows (ops/s ratios; 0 when a cell is
// missing).
func (r *LocksReport) Gains() (udpWheel, threadedWheel float64) {
	at := top(r.Scale.Pairs)
	return ratio(r.Cells, "udp/wheel/"+txnLabel(0), "udp/heap/"+txnLabel(0), at),
		ratio(r.Cells, "threaded/wheel", "threaded/heap", at)
}

// RunLocks sweeps variant × offered load, Reps interleaved runs per cell on
// fresh servers, keeping each cell's median-throughput run. A cell in which
// any call fails is an error.
func RunLocks(sc LocksScale, progress func(string)) (*LocksReport, error) {
	cells, err := sweep(sweepSpec[LocksVariant, LocksCell]{
		tag: "locks", rows: sc.variants(), name: func(v LocksVariant) string { return v.Name },
		loads: sc.Pairs, unit: "pairs", reps: sc.Reps,
		run: func(v LocksVariant, pairs int) (LocksCell, error) { return runLocksCell(sc, v, pairs) },
		note: func(c *LocksCell) string {
			return fmt.Sprintf("peak %d pending, %v lockwait/op", c.PeakPending, c.LockWaitPerOp())
		},
	}, progress)
	if err != nil {
		return nil, err
	}
	return &LocksReport{Scale: sc, Cells: cells}, nil
}

func runLocksCell(sc LocksScale, v LocksVariant, pairs int) (LocksCell, error) {
	cfg := core.Config{
		Arch:    v.Arch,
		Workers: sc.Workers,
		// Every row is stateful: the transaction table and its timers ARE
		// the subject. The long linger keeps completed transactions (and
		// their Timer D/K entries) resident so the pending population the
		// policies are compared under actually builds up.
		Stateful: true,
		Domain:   "bench.gosip",
		// The threaded rows run on the tuned connection manager so the
		// timer policy is measured on top of the fixed server.
		ConnMgr:     connmgr.KindPQueue,
		TimerImpl:   v.TimerImpl,
		TimerShards: sc.TimerShards,
	}
	cfg.Txn.Shards = v.TxnShards
	cfg.Txn.Linger = sc.Linger
	c := LocksCell{Variant: v, Pairs: pairs}
	run, err := runServer(cfg, loadgen.Config{
		Transport:      v.Transport,
		Pairs:          pairs,
		CallsPerCaller: sc.CallsPerCaller,
	}, c.pollTimers)
	c.Result = run.res
	t := run.snap.Timers
	c.TimerLockWait, c.TimerLockWaits = t[metrics.MetricTimerLockWait].Total, t[metrics.MetricTimerLockWait].Count
	c.TxnLockWait, c.TxnLockWaits = t[metrics.MetricTxnLockWait].Total, t[metrics.MetricTxnLockWait].Count
	if err == nil && run.res.CallsFailed > 0 {
		err = fmt.Errorf("%d calls failed", run.res.CallsFailed)
	}
	return c, err
}

// pollTimers polls the standing timer population while the load runs; the
// peaks are the depth at which the heap's O(log n) and corpse costs apply.
// Its stop records the scheduler's lifetime counts.
func (c *LocksCell) pollTimers(srv core.Server) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.PeakPending = max(c.PeakPending, int64(srv.Timers().Len()))
				c.PeakCancelledResident = max(c.PeakCancelledResident, srv.Timers().CancelledResident())
			case <-stop:
				return
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		c.Scheduled, c.Fired = srv.Timers().Stats()
	}
}

// Table renders throughput and lock accounting per variant and load point.
func (r *LocksReport) Table() string {
	var b strings.Builder
	b.WriteString("Lock and timer scaling sweep: ops/s and contended lock wait per operation\n\n")
	b.WriteString(table("variant", "%d pairs", r.Scale.Pairs, r.Cells, func(c *LocksCell) string {
		return fmt.Sprintf("%s ops/s, %v wait/op", c.tput(), c.LockWaitPerOp().Round(time.Nanosecond))
	}).text())
	at := top(r.Scale.Pairs)
	fmt.Fprintf(&b, "\nstanding timer population at %d pairs (peak pending / peak cancelled-resident):\n", at)
	for _, name := range rowNames(r.Cells) {
		if c := r.Cell(name, at); c != nil {
			fmt.Fprintf(&b, "  %-24s %7d / %d (scheduled %d, fired %d)\n",
				name, c.PeakPending, c.PeakCancelledResident, c.Scheduled, c.Fired)
		}
	}
	if udp, threaded := r.Gains(); udp > 0 || threaded > 0 {
		fmt.Fprintf(&b, "\nat %d pairs: wheel vs heap %.2fx ops/s (UDP), %.2fx ops/s (threaded)\n",
			at, udp, threaded)
	}
	return b.String()
}

// Markdown renders the sweep as a GitHub table for EXPERIMENTS.md.
func (r *LocksReport) Markdown() string {
	at := top(r.Scale.Pairs)
	return table("variant", "%d pairs (ops/s)", r.Scale.Pairs, r.Cells, func(c *LocksCell) string { return c.tput() },
		column[LocksCell]{fmt.Sprintf("lock wait/op @ %d", at),
			func(c *LocksCell) string { return c.LockWaitPerOp().Round(time.Nanosecond).String() }},
		column[LocksCell]{fmt.Sprintf("peak pending @ %d", at),
			func(c *LocksCell) string { return fmt.Sprint(c.PeakPending) }},
		column[LocksCell]{fmt.Sprintf("peak corpses @ %d", at),
			func(c *LocksCell) string { return fmt.Sprint(c.PeakCancelledResident) }},
	).markdown()
}
