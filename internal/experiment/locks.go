package experiment

import (
	"fmt"
	"runtime"
	"sort"
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
	Variant LocksVariant
	Pairs   int
	Result  loadgen.Result

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
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Variant.Name == name && c.Pairs == pairs {
			return c
		}
	}
	return nil
}

// Gains compares, at the highest pair count, the wheel against the heap on
// the UDP rows and on the threaded rows (ops/s ratios; 0 when a cell is
// missing).
func (r *LocksReport) Gains() (udpWheel, threadedWheel float64) {
	if len(r.Scale.Pairs) == 0 {
		return 0, 0
	}
	top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
	ratio := func(heapRow, wheelRow string) float64 {
		heap, wheel := r.Cell(heapRow, top), r.Cell(wheelRow, top)
		if heap == nil || wheel == nil || heap.Result.Throughput <= 0 {
			return 0
		}
		return wheel.Result.Throughput / heap.Result.Throughput
	}
	return ratio("udp/heap/"+txnLabel(0), "udp/wheel/"+txnLabel(0)),
		ratio("threaded/heap", "threaded/wheel")
}

// RunLocks sweeps variant × offered load. Each cell runs on a fresh server
// Reps times and the median-throughput run is kept, with repetitions
// interleaved across cells so shared-host noise lands evenly.
func RunLocks(sc LocksScale, progress func(string)) (*LocksReport, error) {
	rep := &LocksReport{Scale: sc}
	reps := sc.Reps
	if reps < 1 {
		reps = 1
	}
	type key struct {
		name  string
		pairs int
	}
	runs := map[key][]*LocksCell{}
	for i := 0; i < reps; i++ {
		for _, v := range sc.variants() {
			for _, pairs := range sc.Pairs {
				runtime.GC() // level the allocator debt left by the previous cell
				cell, err := runLocksCell(sc, v, pairs)
				if err != nil {
					return nil, fmt.Errorf("locks (%s, %d pairs): %w", v.Name, pairs, err)
				}
				k := key{v.Name, pairs}
				runs[k] = append(runs[k], cell)
			}
		}
	}
	for _, v := range sc.variants() {
		for _, pairs := range sc.Pairs {
			cells := runs[key{v.Name, pairs}]
			sort.Slice(cells, func(i, j int) bool {
				return cells[i].Result.Throughput < cells[j].Result.Throughput
			})
			cell := cells[len(cells)/2]
			rep.Cells = append(rep.Cells, *cell)
			if progress != nil {
				progress(fmt.Sprintf("[locks] %-24s %3d pairs: %s (peak %d pending, %v lockwait/op)",
					v.Name, pairs, cell.Result, cell.PeakPending, cell.LockWaitPerOp()))
			}
		}
	}
	return rep, nil
}

func runLocksCell(sc LocksScale, v LocksVariant, pairs int) (*LocksCell, error) {
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
	srv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.DB().ProvisionN(2*pairs, cfg.Domain)

	// Poll the standing timer population while the load runs; the peaks
	// are the depth at which the heap's O(log n) and corpse costs apply.
	stop := make(chan struct{})
	done := make(chan struct{})
	cell := &LocksCell{Variant: v, Pairs: pairs}
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if n := int64(srv.Timers().Len()); n > cell.PeakPending {
					cell.PeakPending = n
				}
				if n := srv.Timers().CancelledResident(); n > cell.PeakCancelledResident {
					cell.PeakCancelledResident = n
				}
			case <-stop:
				return
			}
		}
	}()

	res, err := loadgen.Run(loadgen.Config{
		Transport:      v.Transport,
		ProxyAddr:      srv.Addr(),
		Domain:         cfg.Domain,
		Pairs:          pairs,
		CallsPerCaller: sc.CallsPerCaller,
	})
	close(stop)
	<-done
	if err != nil {
		return nil, err
	}

	p := srv.Profile()
	cell.Result = res
	cell.TimerLockWait = p.Timer(metrics.MetricTimerLockWait).Total()
	cell.TimerLockWaits = p.Timer(metrics.MetricTimerLockWait).Count()
	cell.TxnLockWait = p.Timer(metrics.MetricTxnLockWait).Total()
	cell.TxnLockWaits = p.Timer(metrics.MetricTxnLockWait).Count()
	cell.Scheduled, cell.Fired = srv.Timers().Stats()
	if res.CallsFailed > 0 {
		return nil, fmt.Errorf("%d calls failed", res.CallsFailed)
	}
	return cell, nil
}

// Table renders throughput and lock accounting per variant and load point.
func (r *LocksReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lock and timer scaling sweep: ops/s and contended lock wait per operation\n\n")
	fmt.Fprintf(&b, "%-26s", "variant")
	for _, p := range r.Scale.Pairs {
		fmt.Fprintf(&b, "%30s", fmt.Sprintf("%d pairs", p))
	}
	b.WriteByte('\n')
	for _, v := range r.Scale.variants() {
		fmt.Fprintf(&b, "%-26s", v.Name)
		for _, p := range r.Scale.Pairs {
			c := r.Cell(v.Name, p)
			if c == nil {
				fmt.Fprintf(&b, "%30s", "-")
				continue
			}
			fmt.Fprintf(&b, "%30s", fmt.Sprintf("%.0f ops/s, %v wait/op",
				c.Result.Throughput, c.LockWaitPerOp().Round(time.Nanosecond)))
		}
		b.WriteByte('\n')
	}
	top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
	fmt.Fprintf(&b, "\nstanding timer population at %d pairs (peak pending / peak cancelled-resident):\n", top)
	for _, v := range r.Scale.variants() {
		if c := r.Cell(v.Name, top); c != nil {
			fmt.Fprintf(&b, "  %-24s %7d / %d (scheduled %d, fired %d)\n",
				v.Name, c.PeakPending, c.PeakCancelledResident, c.Scheduled, c.Fired)
		}
	}
	if udp, threaded := r.Gains(); udp > 0 || threaded > 0 {
		fmt.Fprintf(&b, "\nat %d pairs: wheel vs heap %.2fx ops/s (UDP), %.2fx ops/s (threaded)\n",
			top, udp, threaded)
	}
	return b.String()
}

// Markdown renders the sweep as a GitHub table for EXPERIMENTS.md.
func (r *LocksReport) Markdown() string {
	var b strings.Builder
	b.WriteString("\n| variant |")
	for _, p := range r.Scale.Pairs {
		fmt.Fprintf(&b, " %d pairs (ops/s) |", p)
	}
	top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
	fmt.Fprintf(&b, " lock wait/op @ %d | peak pending @ %d | peak corpses @ %d |\n|---|", top, top, top)
	for range r.Scale.Pairs {
		b.WriteString("---|")
	}
	b.WriteString("---|---|---|\n")
	for _, v := range r.Scale.variants() {
		fmt.Fprintf(&b, "| %s |", v.Name)
		for _, p := range r.Scale.Pairs {
			if c := r.Cell(v.Name, p); c != nil {
				fmt.Fprintf(&b, " %.0f |", c.Result.Throughput)
			} else {
				b.WriteString(" - |")
			}
		}
		if c := r.Cell(v.Name, top); c != nil {
			fmt.Fprintf(&b, " %v | %d | %d |\n",
				c.LockWaitPerOp().Round(time.Nanosecond), c.PeakPending, c.PeakCancelledResident)
		} else {
			b.WriteString(" - | - | - |\n")
		}
	}
	return b.String()
}
