// Command sipexperiment regenerates the paper's evaluation: Figures 3–5,
// the §5 profile observations, the §4.3 supervisor-priority effect, and
// the §6 architecture comparison.
//
// Usage:
//
//	sipexperiment -fig 3                 # one figure at the default scale
//	sipexperiment -fig all -md           # everything, with Markdown tables
//	sipexperiment -fig 4 -clients 100,500,1000 -calls 100
//	sipexperiment -fig profile -clients 50
//
// Absolute ops/s depend on the host; the shape (UDP vs TCP ordering, the
// effect of each fix) is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gosip/internal/experiment"
	"gosip/internal/ipc"
	"gosip/internal/transport"
)

// cli is the parsed command line every figure reads.
type cli struct {
	sc       experiment.Scale
	clients  []int // -clients, nil when unset
	calls    int
	workers  int
	prefill  int
	md       bool
	progress func(string)
}

// scale applies -clients, -calls and -workers to one experiment's load
// points, per-caller count and worker count.
func (c *cli) scale(loads *[]int, calls, workers *int) {
	if c.clients != nil {
		*loads = c.clients
	}
	if c.calls > 0 {
		*calls = c.calls
	}
	if c.workers > 0 {
		*workers = c.workers
	}
}

// mid is the middle client count, where the single-load experiments run.
func (c *cli) mid() int { return c.sc.Clients[len(c.sc.Clients)/2] }

// report is what the swept experiments return.
type report interface {
	Table() string
	Markdown() string
}

// show prints a finished report's text table, and its Markdown under -md.
func (c *cli) show(rep report, err error) error {
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(rep.Table())
	if c.md {
		fmt.Println()
		fmt.Print(rep.Markdown())
	}
	return nil
}

// figure is one -fig entry: it runs the experiment and prints its report.
type figure struct {
	name string
	run  func(*cli) error
}

// figures is every experiment in -fig all order; the -fig usage text and
// the unknown-name error are built from it.
var figures = []figure{
	{"3", func(c *cli) error { return c.matrix(experiment.Figure3) }},
	{"4", func(c *cli) error { return c.matrix(experiment.Figure4) }},
	{"5", func(c *cli) error { return c.matrix(experiment.Figure5) }},
	{"profile", func(c *cli) error {
		rep, err := experiment.RunProfile(c.sc, c.mid(), c.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep.String())
		return nil
	}},
	{"priority", func(c *cli) error {
		boosted, starved, err := experiment.RunPriority(c.sc, c.mid(), 500*time.Microsecond, c.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Printf("Supervisor priority effect (paper §4.3, +40–100%% from boosting):\n")
		fmt.Printf("  starved supervisor: %8.0f ops/s\n", starved)
		fmt.Printf("  boosted supervisor: %8.0f ops/s  (+%.0f%%)\n", boosted, 100*(boosted-starved)/starved)
		return nil
	}},
	{"arch", func(c *cli) error {
		out, err := experiment.RunArchitectures(c.sc, c.mid(),
			experiment.Workload{Name: "TCP persistent", Transport: transport.TCP}, c.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("Architecture comparison (§6 discussion, TCP persistent workload):")
		for _, name := range []string{"TCP fixed (fdcache+pq)", "Threaded (§6)", "SCTP-sim (§6)", "UDP"} {
			fmt.Printf("  %-24s %8.0f ops/s\n", name, out[name])
		}
		return nil
	}},
	{"scenarios", func(c *cli) error {
		out, err := experiment.RunScenarios(c.sc, c.mid(), c.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("Server-role comparison (§2 roles; related work expects auth most expensive):")
		for _, name := range []string{"registration", "redirect", "proxy", "proxy+auth"} {
			fmt.Printf("  %-12s %8.0f ops/s\n", name, out[name])
		}
		return nil
	}},
	{"loss", func(c *cli) error {
		rates := []float64{0, 0.02, 0.05, 0.10}
		out, err := experiment.RunLoss(c.sc, c.mid(), rates, c.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("Datagram loss sweep (stateful UDP proxy; calls complete via retransmission):")
		for _, r := range rates {
			res := out[r]
			fmt.Printf("  %4.0f%% loss: %8.0f ops/s  (%d rtx, %d failed)\n",
				100*r, res.Throughput, res.Retransmits, res.CallsFailed)
		}
		return nil
	}},
	{"stages", func(c *cli) error {
		cells, err := experiment.RunStages(c.sc, c.mid(), c.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Printf("Per-stage latency percentiles (%d clients; Figures 4/5 as distributions):\n", c.mid())
		fmt.Print(experiment.StageTable(cells))
		if len(cells) > 0 {
			last := cells[len(cells)-1]
			fmt.Println()
			fmt.Printf("Run timeline, %s (per-interval ops/s and stage P99):\n", last.Name)
			fmt.Print(last.SeriesTable())
		}
		if c.md {
			fmt.Println()
			fmt.Print(experiment.StageMarkdown(cells))
		}
		return nil
	}},
	{"transports", func(c *cli) error { return c.show(experiment.RunTransports(c.sc, c.progress)) }},
	{"overload", func(c *cli) error {
		sc := experiment.DefaultOverloadScale()
		c.scale(&sc.Pairs, &sc.CallsPerCaller, &sc.Workers)
		return c.show(experiment.RunOverload(sc, c.progress))
	}},
	{"batching", func(c *cli) error {
		sc := experiment.DefaultBatchingScale()
		c.scale(&sc.Pairs, &sc.CallsPerCaller, &sc.Workers)
		return c.show(experiment.RunBatching(sc, c.progress))
	}},
	{"locks", func(c *cli) error {
		sc := experiment.DefaultLocksScale()
		c.scale(&sc.Pairs, &sc.CallsPerCaller, &sc.Workers)
		return c.show(experiment.RunLocks(sc, c.progress))
	}},
	{"register", func(c *cli) error {
		sc := experiment.DefaultRegisterScale()
		c.scale(&sc.Phones, &sc.RegistersPerPhone, &sc.Workers)
		if c.prefill > 0 {
			sc.Prefill = c.prefill
		}
		return c.show(experiment.RunRegister(sc, c.progress))
	}},
	{"outliers", func(c *cli) error {
		sc := experiment.DefaultOutlierScale()
		pairs := []int{sc.Pairs}
		c.scale(&pairs, &sc.CallsPerCaller, &sc.Workers)
		sc.Pairs = pairs[len(pairs)/2]
		return c.show(experiment.RunOutliers(sc, c.progress))
	}},
}

// matrix runs one of Figures 3–5 and prints its chart, table, TCP/UDP
// range, and the run timelines of the top client count.
func (c *cli) matrix(run func(experiment.Scale, func(string)) (*experiment.Figure, error)) error {
	fig, err := run(c.sc, c.progress)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(fig.Chart())
	fmt.Println()
	fmt.Print(fig.Table())
	lo, hi := fig.TCPOfUDPRange()
	fmt.Printf("TCP as %% of UDP across the matrix: %.0f%%–%.0f%%\n", lo, hi)
	maxClients := c.sc.Clients[len(c.sc.Clients)-1]
	for _, name := range []string{"TCP persistent", "UDP"} {
		cell := fig.CellFor(name, maxClients)
		if cell == nil || len(cell.Series.Samples) == 0 {
			continue
		}
		fmt.Println()
		fmt.Printf("Run timeline, %s @ %d clients (per-interval ops/s and stage P99):\n", name, maxClients)
		fmt.Print(cell.SeriesTable())
	}
	if c.md {
		fmt.Println()
		fmt.Print(fig.Markdown())
	}
	return nil
}

func main() {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	var (
		fig     = flag.String("fig", "all", "which experiments, comma-separated: "+strings.Join(names, ", ")+", or all")
		prefill = flag.Int("prefill", 0, "register sweep: pre-filled bindings in the location store (default 1000000)")
		clients = flag.String("clients", "", "comma-separated client counts (default scale: 10,50,100)")
		calls   = flag.Int("calls", 0, "calls per caller (default 100)")
		workers = flag.Int("workers", 0, "server worker count (default 8)")
		ipcMode = flag.String("ipc", "", "IPC fabric for TCP: unix or chan (default: unix on linux)")
		paper   = flag.Bool("paper-scale", false, "use the paper's client counts (100,500,1000)")
		md      = flag.Bool("md", false, "also print Markdown tables for EXPERIMENTS.md")
		quiet   = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	c := &cli{sc: experiment.DefaultScale(), calls: *calls, workers: *workers, prefill: *prefill, md: *md,
		progress: func(s string) { fmt.Fprintln(os.Stderr, s) }}
	if *paper {
		c.sc = experiment.PaperScale()
	}
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fatalf("bad -clients value %q", part)
			}
			c.clients = append(c.clients, n)
		}
	}
	c.scale(&c.sc.Clients, &c.sc.CallsPerCaller, &c.sc.Workers)
	if *ipcMode != "" {
		c.sc.IPCMode = ipc.Mode(*ipcMode)
	}
	if *quiet {
		c.progress = nil
	}

	which := names
	if *fig != "all" {
		which = strings.Split(*fig, ",")
	}
	start := time.Now()
	for _, name := range which {
		name = strings.TrimSpace(name)
		var run func(*cli) error
		for _, f := range figures {
			if f.name == name {
				run = f.run
			}
		}
		if run == nil {
			fatalf("unknown experiment %q (want %s, or all)", name, strings.Join(names, ", "))
		}
		if err := run(c); err != nil {
			fatalf("%s: %v", name, err)
		}
	}
	fmt.Fprintf(os.Stderr, "\ntotal experiment time: %v\n", time.Since(start).Round(time.Second))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sipexperiment: "+format+"\n", args...)
	os.Exit(1)
}
