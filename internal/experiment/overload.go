package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// OverloadScale shapes the overload sweep: a server whose capacity is pinned
// by a serialized, slow user database, driven well past saturation.
//
// The sweep reproduces the central claim of the overload-control literature
// (Hong et al.): without admission control goodput *collapses* past the
// saturation point — clients time out, retransmit, and the server burns its
// capacity on work that will never complete — while a local admission policy
// holds goodput near capacity by rejecting the excess cheaply (503 +
// Retry-After) before the expensive authentication and transaction work.
type OverloadScale struct {
	// Pairs are the offered-load points. The last entry should sit near 3×
	// the saturation point implied by LookupLatency and DBPool.
	Pairs []int
	// CallsPerCaller is each caller's closed-loop call count.
	CallsPerCaller int
	// Workers is the server worker count.
	Workers int
	// LookupLatency and DBPool pin server capacity: with a pool of 1 every
	// authenticated transaction serializes on one LookupLatency-long query,
	// making saturation architecture-independent and host-independent.
	LookupLatency time.Duration
	DBPool        int
	// MaxPending is the threshold policy's transaction budget.
	MaxPending int
	// MaxQueue is the per-worker queue budget (threshold + TCP read-pause).
	MaxQueue int
	// ResponseTimeout and MaxRetries set client patience; impatient clients
	// are what turn saturation into collapse.
	ResponseTimeout time.Duration
	MaxRetries      int
	// RejectRetries and BackoffCap set how callers honor Retry-After.
	RejectRetries int
	BackoffCap    time.Duration
}

// DefaultOverloadScale saturates at roughly 6–8 concurrent pairs (a 5 ms
// serialized query per transaction ≈ 200 tx/s), so the top of the default
// sweep offers about 3× capacity.
func DefaultOverloadScale() OverloadScale {
	return OverloadScale{
		Pairs:          []int{4, 48},
		CallsPerCaller: 20,
		Workers:        4,
		LookupLatency:  5 * time.Millisecond,
		DBPool:         1,
		MaxPending:     8,
		MaxQueue:       16,
		// Client patience below the saturated queueing delay is what turns
		// saturation into collapse: timed-out requests are retransmitted
		// (UDP) or abandoned (TCP), but the server still pays the serialized
		// authentication query for each — work that yields no goodput.
		ResponseTimeout: 150 * time.Millisecond,
		MaxRetries:      2,
		RejectRetries:   6,
		BackoffCap:      100 * time.Millisecond,
	}
}

// OverloadCell is one (policy, transport, pairs) measurement.
type OverloadCell struct {
	Measured
	Policy    overload.Policy
	Transport transport.Kind
	Pairs     int
	// Server-side admission counters.
	Offered  int64
	Admitted int64
	Rejected int64
	Pauses   int64
	// Bugfix-sweep health: IPC deadline hits, the fd-handle ledger, and the
	// goroutine delta across the server's lifetime (all should read as
	// "nothing leaked"; a leak fails the cell).
	IPCTimeouts    int64
	HandlesLeaked  int64
	GoroutineDelta int
}

// OverloadReport is the finished sweep.
type OverloadReport struct {
	Scale OverloadScale
	Cells []OverloadCell
}

// overloadTransports and overloadPolicies are the sweep's tables and rows.
var (
	overloadTransports = []transport.Kind{transport.UDP, transport.TCP}
	overloadPolicies   = []overload.Policy{
		overload.PolicyNone, overload.PolicyThreshold, overload.PolicyOccupancy,
	}
)

// of returns the cells measured over one transport (RunOverload sweeps the
// transports one after the other).
func (r *OverloadReport) of(tr transport.Kind) []OverloadCell {
	n := len(r.Cells) / len(overloadTransports)
	for i, k := range overloadTransports {
		if k == tr {
			return r.Cells[i*n : (i+1)*n]
		}
	}
	return nil
}

// Cell returns the measurement for (policy, transport, pairs), or nil.
func (r *OverloadReport) Cell(p overload.Policy, tr transport.Kind, pairs int) *OverloadCell {
	return lookup(r.of(tr), string(p), pairs)
}

// ControlGain returns the best controlled-goodput : no-control-goodput ratio
// at the highest offered load, and the transport it was achieved on.
func (r *OverloadReport) ControlGain() (gain float64, tr transport.Kind) {
	for _, kind := range overloadTransports {
		for _, p := range overloadPolicies[1:] {
			if g := ratio(r.of(kind), string(p), string(overload.PolicyNone), top(r.Scale.Pairs)); g > gain {
				gain, tr = g, kind
			}
		}
	}
	return gain, tr
}

// RunOverload sweeps policy × offered load on each transport, each cell on
// a fresh server whose leak audit must pass.
func RunOverload(sc OverloadScale, progress func(string)) (*OverloadReport, error) {
	rep := &OverloadReport{Scale: sc}
	for _, kind := range overloadTransports {
		cells, err := sweep(sweepSpec[overload.Policy, OverloadCell]{
			tag: "overload " + string(kind), rows: overloadPolicies,
			name:  func(p overload.Policy) string { return string(p) },
			loads: sc.Pairs, unit: "pairs",
			run: func(p overload.Policy, pairs int) (OverloadCell, error) {
				return runOverloadCell(sc, p, kind, pairs)
			},
			note: func(c *OverloadCell) string {
				return fmt.Sprintf("%d shed, %d pauses, leak fd=%d goro=%d",
					c.Rejected, c.Pauses, c.HandlesLeaked, c.GoroutineDelta)
			},
		}, progress)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cells...)
	}
	return rep, nil
}

func runOverloadCell(sc OverloadScale, policy overload.Policy, kind transport.Kind, pairs int) (OverloadCell, error) {
	arch := core.ArchUDP
	if kind == transport.TCP {
		arch = core.ArchTCP
	}
	cfg := core.Config{
		Arch:     arch,
		Workers:  sc.Workers,
		Stateful: true,
		Auth:     true, // every transaction pays the serialized DB query
		Domain:   "bench.gosip",
		ConnMgr:  connmgr.KindScan,
		DB:       userdb.Config{LookupLatency: sc.LookupLatency, PoolSize: sc.DBPool},
		Overload: overload.Config{
			Policy:     policy,
			MaxPending: sc.MaxPending,
			MaxQueue:   sc.MaxQueue,
			PauseReads: kind == transport.TCP,
		},
	}
	run, err := runServer(cfg, loadgen.Config{
		Transport:       kind,
		Pairs:           pairs,
		CallsPerCaller:  sc.CallsPerCaller,
		ResponseTimeout: sc.ResponseTimeout,
		MaxRetries:      sc.MaxRetries,
		RejectRetries:   sc.RejectRetries,
		BackoffCap:      sc.BackoffCap,
		// Setup registers against the same capacity-pinned DB; trickle it so
		// the unmeasured phase doesn't overload the server before the
		// measured one does.
		RegisterConcurrency: 4,
	})
	n := run.snap.Counters
	c := OverloadCell{
		Measured:       Measured{Result: run.res},
		Policy:         policy,
		Transport:      kind,
		Pairs:          pairs,
		Offered:        n[metrics.MetricOverloadOffered],
		Admitted:       n[metrics.MetricOverloadAdmitted],
		Rejected:       n[metrics.MetricOverloadRejected],
		Pauses:         n[metrics.MetricOverloadPauses],
		IPCTimeouts:    n[metrics.MetricIPCTimeouts],
		HandlesLeaked:  run.handlesLeaked,
		GoroutineDelta: run.goroutines,
	}
	return c, err
}

// Table renders goodput versus offered load per transport, policies as rows.
func (r *OverloadReport) Table() string {
	var b strings.Builder
	b.WriteString("Overload sweep: goodput (completed ops/s) vs offered load\n")
	for _, kind := range overloadTransports {
		fmt.Fprintf(&b, "\n%s:\n", kind)
		b.WriteString(table("policy", "%d pairs", r.Scale.Pairs, r.of(kind), func(c *OverloadCell) string {
			return fmt.Sprintf("%s ops/s (%d shed)", c.tput(), c.Rejected)
		}).text())
	}
	if gain, kind := r.ControlGain(); gain > 0 {
		fmt.Fprintf(&b, "\nbest control gain at %d pairs: %.1fx no-control goodput (%s)\n",
			top(r.Scale.Pairs), gain, kind)
	}
	return b.String()
}

// Markdown renders the sweep as GitHub tables for EXPERIMENTS.md.
func (r *OverloadReport) Markdown() string {
	var b strings.Builder
	for _, kind := range overloadTransports {
		fmt.Fprintf(&b, "**%s**\n\n", kind)
		b.WriteString(table("policy", "%d pairs", r.Scale.Pairs, r.of(kind), func(c *OverloadCell) string { return c.tput() },
			column[OverloadCell]{"shed @ max", func(c *OverloadCell) string { return fmt.Sprint(c.Rejected) }},
			column[OverloadCell]{"pauses @ max", func(c *OverloadCell) string { return fmt.Sprint(c.Pauses) }},
		).markdown() + "\n")
	}
	return b.String()
}
