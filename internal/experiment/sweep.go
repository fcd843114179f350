package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/testutil"
)

// Measured is what every swept cell carries: the load result of the rep
// the sweep kept and the throughput range across all of the cell's reps.
type Measured struct {
	Result loadgen.Result
	// Min and Max are the lowest and highest throughput across the cell's
	// reps; both equal Result.Throughput when the cell ran once.
	Min, Max float64

	row  string
	load int
}

func (m *Measured) measured() *Measured { return m }

// tput renders the kept run's throughput, with the [min–max] spread across
// reps when they differ.
func (m *Measured) tput() string {
	if m.Min < m.Max {
		return fmt.Sprintf("%.0f [%.0f–%.0f]", m.Result.Throughput, m.Min, m.Max)
	}
	return fmt.Sprintf("%.0f", m.Result.Throughput)
}

// measuredCell is a pointer to a cell type that embeds Measured.
type measuredCell[T any] interface {
	*T
	measured() *Measured
}

// sweepSpec is one experiment's grid of independent runs.
type sweepSpec[R, T any] struct {
	tag   string // progress and error prefix, e.g. "batching"
	rows  []R
	name  func(R) string
	loads []int
	unit  string // load noun: "clients", "pairs", "phones"
	reps  int    // <1 runs once
	run   func(row R, load int) (T, error)
	note  func(*T) string // optional progress-line suffix
}

// sweep runs every (row, load) cell reps times and keeps, per cell, the
// median-throughput run and the throughput spread. Reps are interleaved —
// rep 1 of every cell, then rep 2, and so on — so a slow stretch on a
// shared host lands on all cells instead of biasing whichever one happened
// to be running, and a GC before each run levels the allocator debt the
// previous one left. Cells come back row-major: all loads of the first
// row, then the next row.
func sweep[R, T any, P measuredCell[T]](s sweepSpec[R, T], progress func(string)) ([]T, error) {
	reps := max(s.reps, 1)
	note := s.note
	if note == nil {
		note = func(*T) string { return "" }
	}
	runs := make([][]T, len(s.rows)*len(s.loads))
	for rep := 1; rep <= reps; rep++ {
		var repTag string
		if reps > 1 {
			repTag = fmt.Sprintf("rep %d/%d ", rep, reps)
		}
		for ri, row := range s.rows {
			for li, load := range s.loads {
				runtime.GC()
				c, err := s.run(row, load)
				if err != nil {
					return nil, fmt.Errorf("%s (%s, %d %s): %w", s.tag, s.name(row), load, s.unit, err)
				}
				i := ri*len(s.loads) + li
				runs[i] = append(runs[i], c)
				if progress != nil {
					line := fmt.Sprintf("[%s] %s%-22s %4d %s: %s", s.tag, repTag, s.name(row), load, s.unit,
						P(&c).measured().Result)
					if n := note(&c); n != "" {
						line += " (" + n + ")"
					}
					progress(line)
				}
			}
		}
	}
	cells := make([]T, len(runs))
	for i, rs := range runs {
		tp := func(j int) float64 { return P(&rs[j]).measured().Result.Throughput }
		sort.SliceStable(rs, func(a, b int) bool { return tp(a) < tp(b) })
		cells[i] = rs[len(rs)/2]
		m := P(&cells[i]).measured()
		m.Min, m.Max = tp(0), tp(len(rs)-1)
		m.row, m.load = s.name(s.rows[i/len(s.loads)]), s.loads[i%len(s.loads)]
	}
	return cells, nil
}

// lookup returns the cell swept for (row, load), or nil.
func lookup[T any, P measuredCell[T]](cells []T, row string, load int) *T {
	for i := range cells {
		if m := P(&cells[i]).measured(); m.row == row && m.load == load {
			return &cells[i]
		}
	}
	return nil
}

// throughput returns the ops/s of the cell swept for (row, load), or 0.
func throughput[T any, P measuredCell[T]](cells []T, row string, load int) float64 {
	if c := lookup[T, P](cells, row, load); c != nil {
		return P(c).measured().Result.Throughput
	}
	return 0
}

// ratio returns row's throughput over base's at one load, or 0 without a
// base.
func ratio[T any, P measuredCell[T]](cells []T, row, base string, load int) float64 {
	if b := throughput[T, P](cells, base, load); b > 0 {
		return throughput[T, P](cells, row, load) / b
	}
	return 0
}

// rowNames returns the swept row names in sweep order.
func rowNames[T any, P measuredCell[T]](cells []T) []string {
	var names []string
	for i := range cells {
		if r := P(&cells[i]).measured().row; len(names) == 0 || names[len(names)-1] != r {
			names = append(names, r)
		}
	}
	return names
}

// hook starts an instrument on a provisioned server; the stop it returns
// runs when the load finishes, before the server closes.
type hook func(srv core.Server) (stop func())

// sampled arms the in-run time-series sampler and stores its series in
// *into when the load finishes.
func sampled(every time.Duration, into *metrics.Series) hook {
	return func(srv core.Server) func() {
		s := metrics.StartSampler(srv.Profile(), every)
		return func() { *into = s.Stop() }
	}
}

// served is one finished server run.
type served struct {
	res  loadgen.Result
	snap metrics.Snapshot // the profile once the server closed
	srv  core.Server      // closed; its profile and tracer stay readable
	// The post-Close audit: fd handles never closed and goroutines still
	// running. Both are zero whenever runServer returns no error.
	handlesLeaked int64
	goroutines    int
}

// runServer is the one procedure behind every cell: start a server of cfg,
// provision 2×Pairs users, drive lc against it with the hooks armed,
// close the server, snapshot the profile — after Close, so a message still
// in a worker when the load returned is fully accounted — and audit that
// the server left nothing behind: the fd-handle ledger balances, its
// goroutines are gone, and the UDP buffer pool recycled every buffer. A
// failed audit is an error.
func runServer(cfg core.Config, lc loadgen.Config, hooks ...hook) (served, error) {
	before := runtime.NumGoroutine()
	srv, err := core.New(cfg)
	if err != nil {
		return served{}, err
	}
	srv.DB().ProvisionN(2*lc.Pairs, cfg.Domain)
	var stops []func()
	for _, h := range hooks {
		stops = append(stops, h(srv))
	}
	lc.ProxyAddr, lc.Domain = srv.Addr(), cfg.Domain
	res, err := loadgen.Run(lc)
	for _, stop := range stops {
		stop()
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	out := served{res: res, snap: srv.Profile().Snapshot(), srv: srv}
	if err != nil {
		return out, err
	}
	issued, closed := testutil.HandleLedger(srv.Profile())
	out.handlesLeaked = issued - closed
	out.goroutines = testutil.SettleGoroutines(before)
	dropped := out.snap.Counters[metrics.MetricUDPPoolDropped]
	if out.handlesLeaked != 0 || out.goroutines != 0 || dropped != 0 {
		return out, fmt.Errorf("leak audit: %d fd handles, %d goroutines, %d pooled buffers dropped",
			out.handlesLeaked, out.goroutines, dropped)
	}
	return out, nil
}

// column is a trailing table column read from each row's top-load cell.
type column[T any] struct {
	head string
	val  func(*T) string
}

// grid is a table of strings, header first, rendered as aligned text or
// as a GitHub Markdown table.
type grid [][]string

// table lays out a sweep's row-major cells with one column per load (text
// from format, header from the label's %d), then the trailing columns.
func table[T any, P measuredCell[T]](corner, label string, loads []int, cells []T, format func(*T) string, tail ...column[T]) grid {
	head := []string{corner}
	for _, l := range loads {
		head = append(head, fmt.Sprintf(label, l))
	}
	for _, c := range tail {
		head = append(head, c.head)
	}
	g := grid{head}
	for i := 0; i+len(loads) <= len(cells) && len(loads) > 0; i += len(loads) {
		row := cells[i : i+len(loads)]
		line := []string{P(&row[0]).measured().row}
		for j := range row {
			line = append(line, format(&row[j]))
		}
		for _, c := range tail {
			line = append(line, c.val(&row[len(row)-1]))
		}
		g = append(g, line)
	}
	return g
}

// text renders the grid with the first column left-aligned and the rest
// right-aligned, each as wide as its widest entry.
func (g grid) text() string {
	var width []int
	for _, line := range g {
		for i, s := range line {
			if i == len(width) {
				width = append(width, 0)
			}
			width[i] = max(width[i], utf8.RuneCountInString(s))
		}
	}
	var b strings.Builder
	for _, line := range g {
		for i, s := range line {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[0], s)
			} else {
				fmt.Fprintf(&b, "  %*s", width[i], s)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// markdown renders the grid as a GitHub table.
func (g grid) markdown() string {
	var b strings.Builder
	for i, line := range g {
		b.WriteString("|")
		for _, s := range line {
			fmt.Fprintf(&b, " %s |", s)
		}
		b.WriteByte('\n')
		if i == 0 {
			b.WriteString("|" + strings.Repeat("---|", len(line)) + "\n")
		}
	}
	return b.String()
}

// top returns the last (largest) load point, or 0.
func top(loads []int) int {
	if len(loads) == 0 {
		return 0
	}
	return loads[len(loads)-1]
}

// ratioRows appends, for every swept row but the skipped ones, a row (name
// plus suffix) of its throughput as a percentage of base's at each load.
func ratioRows[T any, P measuredCell[T]](g grid, cells []T, loads []int, base, suffix string, skip ...string) grid {
	for _, row := range rowNames[T, P](cells) {
		if slices.Contains(skip, row) {
			continue
		}
		line := []string{row + suffix}
		for _, l := range loads {
			line = append(line, pct(ratio[T, P](cells, row, base, l)))
		}
		g = append(g, line)
	}
	return g
}

// pct renders a ratio as a percentage, or "-" without one.
func pct(r float64) string {
	if r <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*r)
}
