package experiment

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gosip/internal/loadgen"
)

// fakeCell is a swept cell whose throughput the test dictates.
type fakeCell struct {
	Measured
	rep int
}

// fakeSweep sweeps rows × loads with throughputs tp(row, load, rep) and no
// servers, recording the order in which cells ran.
func fakeSweep(t *testing.T, rows []string, loads []int, reps int, tp func(row string, load, rep int) float64) ([]fakeCell, []string, []string) {
	t.Helper()
	var order, lines []string
	seen := map[string]int{}
	cells, err := sweep(sweepSpec[string, fakeCell]{
		tag: "fake", rows: rows, name: func(r string) string { return r },
		loads: loads, unit: "pairs", reps: reps,
		run: func(row string, load int) (fakeCell, error) {
			key := fmt.Sprintf("%s@%d", row, load)
			rep := seen[key]
			seen[key]++
			order = append(order, fmt.Sprintf("%s#%d", key, rep))
			return fakeCell{Measured: Measured{Result: loadgen.Result{Throughput: tp(row, load, rep)}}, rep: rep}, nil
		},
	}, func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	return cells, order, lines
}

// TestSweepInterleavesRepMajor: every cell runs once before any runs
// twice, rows in order and loads within a row; cells come back row-major.
func TestSweepInterleavesRepMajor(t *testing.T) {
	cells, order, lines := fakeSweep(t, []string{"a", "b"}, []int{1, 2}, 2,
		func(string, int, int) float64 { return 1 })
	want := []string{"a@1#0", "a@2#0", "b@1#0", "b@2#0", "a@1#1", "a@2#1", "b@1#1", "b@2#1"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("run order = %v, want %v", order, want)
	}
	if len(lines) != len(want) || !strings.HasPrefix(lines[4], "[fake] rep 2/2 a ") {
		t.Errorf("progress lines = %q", lines)
	}
	var got []string
	for _, c := range cells {
		got = append(got, fmt.Sprintf("%s@%d", c.row, c.load))
	}
	if strings.Join(got, " ") != "a@1 a@2 b@1 b@2" {
		t.Errorf("cell order = %v", got)
	}
	if c := lookup(cells, "b", 1); c == nil || c.row != "b" || c.load != 1 {
		t.Errorf("lookup(b, 1) = %+v", c)
	}
	if lookup(cells, "c", 1) != nil || lookup(cells, "a", 3) != nil {
		t.Error("lookup of an unswept cell is not nil")
	}
}

// TestSweepKeepsMedianAndSpread: the kept run is the median-throughput rep
// (the upper one for an even count) and Min/Max span every rep.
func TestSweepKeepsMedianAndSpread(t *testing.T) {
	for _, tc := range []struct {
		tps              []float64
		rep              int
		median, min, max float64
		text             string
	}{
		{[]float64{7}, 0, 7, 7, 7, "7"},
		{[]float64{9, 3}, 0, 9, 3, 9, "9 [3–9]"},
		{[]float64{50, 10, 40, 20, 30}, 4, 30, 10, 50, "30 [10–50]"},
	} {
		cells, _, lines := fakeSweep(t, []string{"a"}, []int{1}, len(tc.tps),
			func(_ string, _ int, rep int) float64 { return tc.tps[rep] })
		c := cells[0]
		if c.rep != tc.rep || c.Result.Throughput != tc.median || c.Min != tc.min || c.Max != tc.max {
			t.Errorf("reps %v: kept rep %d (%.0f) in [%.0f, %.0f], want rep %d (%.0f) in [%.0f, %.0f]",
				tc.tps, c.rep, c.Result.Throughput, c.Min, c.Max, tc.rep, tc.median, tc.min, tc.max)
		}
		if got := c.tput(); got != tc.text {
			t.Errorf("reps %v: tput() = %q, want %q", tc.tps, got, tc.text)
		}
		if len(tc.tps) == 1 && strings.Contains(lines[0], "rep ") {
			t.Errorf("single-rep progress line names a rep: %q", lines[0])
		}
	}
}

// TestSweepWrapsErrors: a failed run stops the sweep with the tag, row and
// load in the message and the cause still matchable.
func TestSweepWrapsErrors(t *testing.T) {
	boom := errors.New("boom")
	runs := 0
	_, err := sweep(sweepSpec[string, fakeCell]{
		tag: "fake", rows: []string{"a", "b"}, name: func(r string) string { return r },
		loads: []int{1, 2}, unit: "pairs", reps: 3,
		run: func(row string, load int) (fakeCell, error) {
			runs++
			if row == "b" && load == 2 {
				return fakeCell{}, boom
			}
			return fakeCell{}, nil
		},
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
	if want := "fake (b, 2 pairs): boom"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if runs != 4 {
		t.Errorf("sweep ran %d cells after the failure, want it to stop at the 4th", runs)
	}
}

// TestGridRendering: text columns align on the widest entry and Markdown
// gets a separator row.
func TestGridRendering(t *testing.T) {
	g := grid{{"variant", "2 pairs"}, {"a", "1"}, {"longer", "1234 [1–9]"}}
	want := "variant     2 pairs\na                 1\nlonger   1234 [1–9]\n"
	if got := g.text(); got != want {
		t.Errorf("text =\n%s\nwant\n%s", got, want)
	}
	if got := g.markdown(); got != "| variant | 2 pairs |\n|---|---|\n| a | 1 |\n| longer | 1234 [1–9] |\n" {
		t.Errorf("markdown =\n%s", got)
	}
}

// checkReport asserts a swept report has rows × loads cells and that both
// renderers name every row.
func checkReport(t *testing.T, rows []string, loads []int, cells int, table, md string) {
	t.Helper()
	if want := len(rows) * len(loads); cells != want {
		t.Errorf("cells = %d, want %d rows × %d loads", cells, len(rows), len(loads))
	}
	for _, r := range rows {
		if !strings.Contains(table, r) || !strings.Contains(md, "| "+r+" |") {
			t.Errorf("row %q missing from the renderers:\n%s\n%s", r, table, md)
		}
	}
}

func TestRunBatchingSmoke(t *testing.T) {
	sc := BatchingScale{Pairs: []int{2, 4}, CallsPerCaller: 4, Workers: 2, Batches: []int{8}, Shards: 2, Reps: 1, RcvBuf: 32 << 10}
	rep, err := RunBatching(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, v := range sc.variants() {
		rows = append(rows, v.Name)
	}
	checkReport(t, rows, sc.Pairs, len(rep.Cells), rep.Table(), rep.Markdown())
	for _, c := range rep.Cells {
		if c.Result.CallsFailed != 0 || c.Result.Throughput <= 0 {
			t.Errorf("%s @%d: %s", c.Variant.Name, c.Pairs, c.Result)
		}
		if c.SyscallsPerOp() <= 0 {
			t.Errorf("%s @%d: no network syscalls accounted", c.Variant.Name, c.Pairs)
		}
	}
}

func TestRunLocksSmoke(t *testing.T) {
	sc := LocksScale{Pairs: []int{2}, CallsPerCaller: 4, Workers: 2, TxnShards: []int{1, 0}, TimerShards: 2, Linger: 100 * time.Millisecond, Reps: 2}
	rep, err := RunLocks(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, v := range sc.variants() {
		rows = append(rows, v.Name)
	}
	checkReport(t, rows, sc.Pairs, len(rep.Cells), rep.Table(), rep.Markdown())
	for _, c := range rep.Cells {
		if c.Result.CallsFailed != 0 || c.Scheduled == 0 {
			t.Errorf("%s: %s, %d timers scheduled", c.Variant.Name, c.Result, c.Scheduled)
		}
		if c.Min > c.Result.Throughput || c.Max < c.Result.Throughput {
			t.Errorf("%s: kept %.0f ops/s outside its spread [%.0f, %.0f]", c.Variant.Name, c.Result.Throughput, c.Min, c.Max)
		}
	}
	if udp, threaded := rep.Gains(); udp <= 0 || threaded <= 0 {
		t.Errorf("Gains() = %.2f, %.2f", udp, threaded)
	}
}

func TestRunRegisterSmoke(t *testing.T) {
	sc := RegisterScale{
		Phones: []int{2, 4}, RegistersPerPhone: 4, Workers: 2, Prefill: 1000, LookupProbers: 1,
		DBLatency: time.Millisecond, DBPool: 2, CacheEntries: 1024, CacheTTL: time.Minute,
		MaxPending: 8, MaxQueue: 16, ResponseTimeout: 2 * time.Second, MaxRetries: 2,
		RejectRetries: 6, BackoffCap: 20 * time.Millisecond, Reps: 1,
	}
	rep, err := RunRegister(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, v := range registerVariants() {
		rows = append(rows, v.Name)
	}
	checkReport(t, rows, sc.Phones, len(rep.Cells), rep.Table(), rep.Markdown())
	for _, c := range rep.Cells {
		if c.Result.CallsFailed != 0 || c.Result.Throughput <= 0 {
			t.Errorf("%s @%d: %s", c.Variant, c.Phones, c.Result)
		}
		if c.Lookups == 0 || c.BytesPerBinding <= 0 {
			t.Errorf("%s @%d: %d lookups probed, %.0f B/binding", c.Variant, c.Phones, c.Lookups, c.BytesPerBinding)
		}
	}
	if rep.CacheGain() <= 0 {
		t.Error("no cache gain computed")
	}
}
