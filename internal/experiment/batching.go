package experiment

import (
	"fmt"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// BatchingScale shapes the batched-I/O sweep: the same closed-loop call
// workload as the figures, run against servers that differ only in how
// datagrams and stream writes cross the kernel boundary. The comparison of
// interest is ops/s and syscalls per completed operation, variant by
// variant against the paper-faithful baseline.
type BatchingScale struct {
	// Pairs are the offered-load points (caller/callee pairs). The batching
	// win grows with concurrency — batches only fill when arrivals queue —
	// so the last entry should be comfortably past one pair per worker.
	Pairs []int
	// CallsPerCaller is each caller's closed-loop call count.
	CallsPerCaller int
	// Workers is the server worker count.
	Workers int
	// Batches are the UDP recvmmsg/sendmmsg budgets to sweep.
	Batches []int
	// Shards is the SO_REUSEPORT socket count for the sharded variants
	// (clamped to Workers by the server).
	Shards int
	// Reps runs each cell this many times and keeps the median-throughput
	// run. Single-digit-second cells on a shared host are dominated by
	// scheduling noise; the median is stable where a single run is not.
	Reps int
	// RcvBuf, when >0, requests the same SO_RCVBUF for every variant's
	// sockets. The interesting batching regime on a loopback host is burst
	// absorption: with a bounded receive buffer, a reader that drains one
	// datagram per wakeup falls behind fan-in bursts and sheds load as
	// kernel drops (each one stalling a closed-loop caller for a full
	// retransmission timeout), while recvmmsg empties the same buffer a
	// batch per wakeup. An unconstrained buffer just hides the backlog.
	RcvBuf int
}

// DefaultBatchingScale keeps the sweep minutes-scale while still showing
// the syscall amortization.
func DefaultBatchingScale() BatchingScale {
	return BatchingScale{
		Pairs:          []int{8, 128},
		CallsPerCaller: 50,
		Workers:        4,
		Batches:        []int{8, 32},
		Shards:         4,
		Reps:           5,
		RcvBuf:         32 << 10,
	}
}

// BatchingVariant is one server configuration under test.
type BatchingVariant struct {
	Name      string
	Arch      core.Architecture
	Transport transport.Kind
	UDPBatch  int
	UDPShards int
	Coalesce  bool
}

// variants builds the sweep rows: the UDP baseline against each batch
// size, sharding alone, and batching+sharding combined; then TCP and
// threaded, each baseline against write coalescing.
func (sc BatchingScale) variants() []BatchingVariant {
	vs := []BatchingVariant{
		{Name: "udp/base", Arch: core.ArchUDP, Transport: transport.UDP},
	}
	for _, b := range sc.Batches {
		vs = append(vs, BatchingVariant{
			Name: fmt.Sprintf("udp/batch%d", b), Arch: core.ArchUDP,
			Transport: transport.UDP, UDPBatch: b,
		})
	}
	if sc.Shards > 1 && transport.ReusePortAvailable() {
		vs = append(vs, BatchingVariant{
			Name: fmt.Sprintf("udp/shard%d", sc.Shards), Arch: core.ArchUDP,
			Transport: transport.UDP, UDPShards: sc.Shards,
		})
		if len(sc.Batches) > 0 {
			top := sc.Batches[len(sc.Batches)-1]
			vs = append(vs, BatchingVariant{
				Name: fmt.Sprintf("udp/batch%d+shard%d", top, sc.Shards), Arch: core.ArchUDP,
				Transport: transport.UDP, UDPBatch: top, UDPShards: sc.Shards,
			})
		}
	}
	vs = append(vs,
		BatchingVariant{Name: "tcp/base", Arch: core.ArchTCP, Transport: transport.TCP},
		BatchingVariant{Name: "tcp/coalesce", Arch: core.ArchTCP, Transport: transport.TCP, Coalesce: true},
		BatchingVariant{Name: "threaded/base", Arch: core.ArchThreaded, Transport: transport.TCP},
		BatchingVariant{Name: "threaded/coalesce", Arch: core.ArchThreaded, Transport: transport.TCP, Coalesce: true},
	)
	return vs
}

// BatchingCell is one (variant, pairs) measurement with the server-side
// syscall accounting harvested after the run.
type BatchingCell struct {
	Measured
	Variant BatchingVariant
	Pairs   int

	RecvSyscalls, RecvMsgs int64
	SendSyscalls, SendMsgs int64
	WriteCalls, WriteMsgs  int64
	PoolDropped            int64
}

// netSyscalls is the cell's total network-crossing count: datagram
// receive and send calls plus stream write calls.
func (c BatchingCell) netSyscalls() int64 {
	return c.RecvSyscalls + c.SendSyscalls + c.WriteCalls
}

// netMsgs is the number of SIP messages those syscalls moved.
func (c BatchingCell) netMsgs() int64 {
	return c.RecvMsgs + c.SendMsgs + c.WriteMsgs
}

// SyscallsPerOp is the cell's network syscall cost per completed
// transaction — the quantity batching amortizes.
func (c BatchingCell) SyscallsPerOp() float64 {
	if c.Result.Ops == 0 {
		return 0
	}
	return float64(c.netSyscalls()) / float64(c.Result.Ops)
}

// MsgsPerSyscall is the realized amortization factor (1.0 = unbatched).
func (c BatchingCell) MsgsPerSyscall() float64 {
	if n := c.netSyscalls(); n > 0 {
		return float64(c.netMsgs()) / float64(n)
	}
	return 0
}

// BatchingReport is the finished sweep.
type BatchingReport struct {
	Scale BatchingScale
	Cells []BatchingCell
}

// Cell returns the measurement for (variant name, pairs), or nil.
func (r *BatchingReport) Cell(name string, pairs int) *BatchingCell {
	return lookup(r.Cells, name, pairs)
}

// Gain compares the combined batch+shard UDP variant against the UDP
// baseline at the highest pair count: the ops/s ratio and the factor by
// which syscalls per operation fell.
func (r *BatchingReport) Gain() (opsRatio, syscallFactor float64) {
	at := top(r.Scale.Pairs)
	base := r.Cell("udp/base", at)
	if base == nil {
		return 0, 0
	}
	var best *BatchingCell
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Pairs == at && c.Variant.UDPBatch > 1 && c.Variant.UDPShards > 1 {
			best = c
		}
	}
	if best == nil {
		return 0, 0
	}
	opsRatio = ratio(r.Cells, best.row, base.row, at)
	if s := best.SyscallsPerOp(); s > 0 {
		syscallFactor = base.SyscallsPerOp() / s
	}
	return opsRatio, syscallFactor
}

// RunBatching sweeps variant × offered load, Reps interleaved runs per cell
// on fresh servers, keeping each cell's median-throughput run.
func RunBatching(sc BatchingScale, progress func(string)) (*BatchingReport, error) {
	cells, err := sweep(sweepSpec[BatchingVariant, BatchingCell]{
		tag: "batching", rows: sc.variants(), name: func(v BatchingVariant) string { return v.Name },
		loads: sc.Pairs, unit: "pairs", reps: sc.Reps,
		run: func(v BatchingVariant, pairs int) (BatchingCell, error) { return runBatchingCell(sc, v, pairs) },
		note: func(c *BatchingCell) string {
			return fmt.Sprintf("%.2f syscalls/op, %.1f msgs/syscall", c.SyscallsPerOp(), c.MsgsPerSyscall())
		},
	}, progress)
	if err != nil {
		return nil, err
	}
	return &BatchingReport{Scale: sc, Cells: cells}, nil
}

func runBatchingCell(sc BatchingScale, v BatchingVariant, pairs int) (BatchingCell, error) {
	cfg := core.Config{
		Arch:    v.Arch,
		Workers: sc.Workers,
		// UDP rows run the §2 stateless proxy: per-message proxy work is
		// minimal there, so the sweep isolates the kernel-crossing cost the
		// batching knobs change. Stream rows must stay stateful — the
		// stateless response relay dials the Via sent-by, and a phone's
		// ephemeral TCP source port is not listening.
		Stateful: v.Transport != transport.UDP,
		Domain:   "bench.gosip",
		// The TCP rows run with both paper fixes on, so coalescing is
		// measured on top of the tuned server rather than hidden under the
		// fd-cache pathology.
		FDCache:     true,
		ConnMgr:     connmgr.KindPQueue,
		UDPBatch:    v.UDPBatch,
		UDPShards:   v.UDPShards,
		TCPCoalesce: v.Coalesce,
		SoRcvBuf:    sc.RcvBuf,
	}
	run, err := runServer(cfg, loadgen.Config{
		Transport:      v.Transport,
		Pairs:          pairs,
		CallsPerCaller: sc.CallsPerCaller,
	})
	n := run.snap.Counters
	return BatchingCell{
		Measured:     Measured{Result: run.res},
		Variant:      v,
		Pairs:        pairs,
		RecvSyscalls: n[metrics.MetricUDPRecvSyscalls],
		RecvMsgs:     n[metrics.MetricUDPRecvMsgs],
		SendSyscalls: n[metrics.MetricUDPSendSyscalls],
		SendMsgs:     n[metrics.MetricUDPSendMsgs],
		WriteCalls:   n[metrics.MetricTCPWriteCalls],
		WriteMsgs:    n[metrics.MetricTCPWriteMsgs],
		PoolDropped:  n[metrics.MetricUDPPoolDropped],
	}, err
}

// Table renders throughput and syscall cost per variant and load point.
func (r *BatchingReport) Table() string {
	g := table("variant", "%d pairs", r.Scale.Pairs, r.Cells, func(c *BatchingCell) string {
		return fmt.Sprintf("%s ops/s, %.2f sys/op", c.tput(), c.SyscallsPerOp())
	})
	s := "Batched I/O sweep: ops/s and syscalls per completed operation\n\n" + g.text()
	if ops, sys := r.Gain(); ops > 0 {
		s += fmt.Sprintf("\nbatch+shard vs baseline at %d pairs: %.2fx ops/s, syscalls/op ÷%.1f\n",
			top(r.Scale.Pairs), ops, sys)
	}
	return s
}

// Markdown renders the sweep as a GitHub table for EXPERIMENTS.md.
func (r *BatchingReport) Markdown() string {
	at := top(r.Scale.Pairs)
	return table("variant", "%d pairs (ops/s)", r.Scale.Pairs, r.Cells, func(c *BatchingCell) string { return c.tput() },
		column[BatchingCell]{fmt.Sprintf("syscalls/op @ %d", at),
			func(c *BatchingCell) string { return fmt.Sprintf("%.2f", c.SyscallsPerOp()) }},
		column[BatchingCell]{fmt.Sprintf("msgs/syscall @ %d", at),
			func(c *BatchingCell) string { return fmt.Sprintf("%.1f", c.MsgsPerSyscall()) }},
	).markdown()
}
