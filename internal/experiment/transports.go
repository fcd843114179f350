// Transport-matrix experiment: UDP vs TCP vs TLS on the tuned server
// (fd cache + pqueue), the price-of-privacy companion to Figures 3–5. The
// question it answers is where TLS's cost actually sits: with persistent
// connections and session resumption the steady state is the TCP persistent
// path plus record-layer crypto, while per-call connections expose the full
// handshake — amortization, not encryption, dominates the gap.
package experiment

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// perCallOps closes the phone's connection after every call (INVITE + BYE =
// 2 ops), the workload that maximizes connection-establishment cost.
const perCallOps = 2

// TransportCell is one (transport variant, client count) measurement with
// the TLS accounting the gap analysis needs.
type TransportCell struct {
	Measured
	Name    string
	Clients int
	// Server-side TLS accounting (zero for UDP/TCP cells): handshakes the
	// proxy performed, split full vs ticket-resumed, the handshake latency
	// distribution, and sends pinned to the owning process because TLS
	// crypto state cannot travel with a duplicated descriptor.
	FullHandshakes int64
	Resumptions    int64
	PinnedSends    int64
	Handshake      metrics.HistogramSnapshot
	Snapshot       metrics.Snapshot
}

// transportVariant is one column of the matrix.
type transportVariant struct {
	name       string
	transport  transport.Kind
	opsPerConn int
	resume     bool
}

func transportVariants() []transportVariant {
	return []transportVariant{
		{name: "UDP", transport: transport.UDP},
		{name: "TCP persistent", transport: transport.TCP},
		{name: "TCP per-call", transport: transport.TCP, opsPerConn: perCallOps},
		{name: "TLS persistent+resume", transport: transport.TLS, resume: true},
		{name: "TLS persistent", transport: transport.TLS},
		{name: "TLS per-call+resume", transport: transport.TLS, opsPerConn: perCallOps, resume: true},
		{name: "TLS per-call", transport: transport.TLS, opsPerConn: perCallOps},
	}
}

// TransportFigure is the completed matrix.
type TransportFigure struct {
	Scale Scale
	Cells []TransportCell
}

// RunTransports measures the full UDP/TCP/TLS matrix — {persistent,
// per-call} × {resumption on, off} for the stream transports — on the tuned
// architecture (fd cache + pqueue). The proxy's certificate is generated at
// run time and shared with the phone fleet as its trust root; no key
// material touches disk. A cell in which any call fails is an error.
func RunTransports(sc Scale, progress func(string)) (*TransportFigure, error) {
	cert, pool, err := transport.GenerateSelfSigned("gosip-bench")
	if err != nil {
		return nil, fmt.Errorf("transports: certificate: %w", err)
	}
	cells, err := sweep(sweepSpec[transportVariant, TransportCell]{
		tag: "transports", rows: transportVariants(), name: func(v transportVariant) string { return v.name },
		loads: sc.Clients, unit: "clients",
		run: func(v transportVariant, clients int) (TransportCell, error) {
			return runTransportCell(v, clients, sc, cert, pool)
		},
		note: func(c *TransportCell) string {
			if c.FullHandshakes == 0 && c.Resumptions == 0 {
				return ""
			}
			return fmt.Sprintf("hs %d full/%d resumed, p99=%v, %d pinned",
				c.FullHandshakes, c.Resumptions, c.Handshake.P99().Round(time.Microsecond), c.PinnedSends)
		},
	}, progress)
	if err != nil {
		return nil, err
	}
	return &TransportFigure{Scale: sc, Cells: cells}, nil
}

// runTransportCell runs one fresh server + workload pair. TLS cells arm
// resumption on both sides: the server issues session tickets (with a
// rotating key, exercising the rotation path under load) and the phone
// fleet shares one client session cache so per-call reconnects resume.
func runTransportCell(v transportVariant, clients int, sc Scale, cert tls.Certificate, pool *x509.CertPool) (TransportCell, error) {
	w := Workload{Name: v.name, Transport: v.transport, OpsPerConn: v.opsPerConn}
	cfg := baseConfig(w, sc)
	cfg.FDCache = true
	cfg.ConnMgr = connmgr.KindPQueue
	if v.transport == transport.UDP {
		cfg.ConnMgr = connmgr.KindScan // UDP has no connections to manage
		cfg.FDCache = false
	}
	lc := loadgen.Config{
		Transport:       w.Transport,
		Pairs:           clients,
		CallsPerCaller:  sc.CallsPerCaller,
		OpsPerConn:      w.OpsPerConn,
		ResponseTimeout: sc.ResponseTimeout,
	}
	if v.transport == transport.TLS {
		cfg.TLS = &core.TLSSettings{
			Cert:         cert,
			RootCAs:      pool,
			Resume:       v.resume,
			TicketRotate: 30 * time.Second,
		}
		var err error
		lc.TLS, err = transport.NewTLSContext(transport.TLSOptions{
			Cert:    cert,
			RootCAs: pool,
			Resume:  v.resume,
		})
		if err != nil {
			return TransportCell{}, err
		}
	}
	run, err := runServer(cfg, lc)
	snap := run.snap
	c := TransportCell{
		Measured:       Measured{Result: run.res},
		Name:           v.name,
		Clients:        clients,
		FullHandshakes: snap.Counters[metrics.MetricTLSFullHandshakes],
		Resumptions:    snap.Counters[metrics.MetricTLSResumptions],
		PinnedSends:    snap.Counters[metrics.MetricTLSPinnedSends],
		Handshake:      snap.Histograms[metrics.StageHandshake],
		Snapshot:       snap,
	}
	if err == nil && run.res.CallsFailed > 0 {
		err = fmt.Errorf("%d calls failed", run.res.CallsFailed)
	}
	return c, err
}

// Throughput returns ops/s for (variant name, clients), or 0.
func (f *TransportFigure) Throughput(name string, clients int) float64 {
	return throughput(f.Cells, name, clients)
}

func (f *TransportFigure) grid(tail ...column[TransportCell]) grid {
	return table("variant", "%d clients", f.Scale.Clients, f.Cells,
		func(c *TransportCell) string { return c.tput() }, tail...)
}

// Table renders the matrix as text: ops/s per cell, each stream variant as
// a percentage of TCP persistent (the convergence number the amortization
// story is judged on), and the TLS handshake accounting.
func (f *TransportFigure) Table() string {
	g := ratioRows(f.grid(), f.Cells, f.Scale.Clients, "TCP persistent", " /TCPp", "UDP", "TCP persistent")
	var b strings.Builder
	b.WriteString("Figure transports: UDP/TCP/TLS matrix (ops/s)\n")
	b.WriteString(g.text())
	for _, clients := range f.Scale.Clients {
		for _, name := range rowNames(f.Cells) {
			c := lookup(f.Cells, name, clients)
			if c.FullHandshakes == 0 && c.Resumptions == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-28s %4d clients: %d full + %d resumed handshakes (p50=%v p99=%v), %d pinned sends, %d reconnects\n",
				c.Name, c.Clients, c.FullHandshakes, c.Resumptions,
				c.Handshake.P50().Round(time.Microsecond),
				c.Handshake.P99().Round(time.Microsecond),
				c.PinnedSends, c.Result.Reconnects)
		}
	}
	return b.String()
}

// Markdown renders the matrix for EXPERIMENTS.md: throughput columns plus
// the %-of-TCP-persistent convergence column at the largest client count.
func (f *TransportFigure) Markdown() string {
	big := top(f.Scale.Clients)
	return f.grid(
		column[TransportCell]{fmt.Sprintf("%% of TCP persistent @%d", big),
			func(c *TransportCell) string {
				if c.Name == "UDP" || c.Name == "TCP persistent" {
					return "-"
				}
				return pct(ratio(f.Cells, c.Name, "TCP persistent", big))
			}},
		column[TransportCell]{"handshakes (full/resumed)", func(c *TransportCell) string {
			if c.FullHandshakes == 0 && c.Resumptions == 0 {
				return "-"
			}
			return fmt.Sprintf("%d/%d", c.FullHandshakes, c.Resumptions)
		}},
	).markdown()
}
