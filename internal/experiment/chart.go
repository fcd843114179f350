package experiment

import (
	"fmt"
	"strings"
)

// Chart renders the figure as paper-style grouped ASCII bars: one group
// per client count, one bar per workload, scaled to the matrix maximum.
// The originals are bar charts (Figures 3–5), so the reproduction prints
// one too.
func (f *Figure) Chart() string {
	const width = 48
	maxTp := 0.0
	for _, c := range f.Cells {
		if c.Result.Throughput > maxTp {
			maxTp = c.Result.Throughput
		}
	}
	if maxTp <= 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	for _, clients := range f.Scale.Clients {
		fmt.Fprintf(&b, "%d clients\n", clients)
		for _, w := range rowNames(f.Cells) {
			tp := f.Throughput(w, clients)
			n := int(tp / maxTp * width)
			if n < 1 && tp > 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %-18s %s %0.f\n", w, strings.Repeat("█", n), tp)
		}
	}
	return b.String()
}

// BarLine renders one labeled value against a maximum — used by the
// scalar experiments (priority, architectures, scenarios, loss).
func BarLine(label string, value, max float64, unit string) string {
	const width = 40
	n := 0
	if max > 0 {
		n = int(value / max * width)
	}
	if n < 1 && value > 0 {
		n = 1
	}
	return fmt.Sprintf("  %-24s %s %.0f %s", label, strings.Repeat("█", n), value, unit)
}
