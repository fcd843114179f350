// Stage-latency experiment: the paper's Figures 4/5 story — fd cache and
// pqueue progressively removing the TCP architecture's overheads — told as
// per-stage latency distributions instead of aggregate throughput.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// StageCell is one server variant's run: end-of-run snapshot (per-stage
// histograms), throughput, and the sampled timeline.
type StageCell struct {
	Cell
	Name       string
	Throughput float64
}

// stageVariants are the four configurations the stage table compares:
// the TCP baseline, the Figure 4 fd cache, Figure 5's pqueue on top, and
// the UDP reference.
func stageVariants() []variantRow {
	tcp := Workload{Name: "TCP persistent", Transport: transport.TCP}
	return []variantRow{
		{"TCP baseline", tcp, figureVariant(false, connmgr.KindScan)},
		{"TCP fd-cache", tcp, figureVariant(true, connmgr.KindScan)},
		{"TCP fd-cache+pqueue", tcp, figureVariant(true, connmgr.KindPQueue)},
		{"UDP", Workload{Name: "UDP", Transport: transport.UDP}, baseConfig},
	}
}

// RunStages measures per-stage latency distributions across the four
// variants at a single client count.
func RunStages(sc Scale, clients int, progress func(string)) ([]StageCell, error) {
	cells, err := runVariants("stages", stageVariants(), sc, clients, progress)
	if err != nil {
		return nil, err
	}
	out := make([]StageCell, len(cells))
	for i, c := range cells {
		out[i] = StageCell{Cell: c, Name: c.row, Throughput: c.Result.Throughput}
	}
	return out, nil
}

// stageTableRows are the stages shown in the comparison, pipeline order.
var stageTableRows = []string{
	metrics.StageParse, metrics.StageTxnMatch, metrics.StageDBLookup,
	metrics.StageFDCacheHit, metrics.StageFDIPC, metrics.StageSend,
	metrics.StageSupervisor, metrics.StageProcess, metrics.StageIdleScan,
}

// stageGrid lays out the cross-variant per-stage P50/P99 comparison: rows
// are the stages some variant exercised, columns the server variants.
func stageGrid(corner string, cells []StageCell) grid {
	g := grid{{corner}}
	for _, c := range cells {
		g[0] = append(g[0], c.Name)
	}
	for _, st := range stageTableRows {
		line := []string{strings.TrimPrefix(st, "stage.")}
		seen := false
		for _, c := range cells {
			h := c.Snapshot.Histograms[st]
			if h.Count == 0 {
				line = append(line, "-")
				continue
			}
			seen = true
			line = append(line, fmt.Sprintf("%v/%v", h.P50().Round(time.Microsecond), h.P99().Round(time.Microsecond)))
		}
		if seen {
			g = append(g, line)
		}
	}
	line := []string{"throughput"}
	for _, c := range cells {
		line = append(line, fmt.Sprintf("%.0f ops/s", c.Throughput))
	}
	return append(g, line)
}

// StageTable renders the per-stage comparison as text.
func StageTable(cells []StageCell) string { return stageGrid("stage p50/p99", cells).text() }

// StageMarkdown renders the same comparison as a GitHub table.
func StageMarkdown(cells []StageCell) string { return stageGrid("stage (p50/p99)", cells).markdown() }
