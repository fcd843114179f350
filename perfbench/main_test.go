package main

// The benchmark's self-test, at tiny scale: every named metric is emitted
// with its unit for every workload, the correctness gate trips on injected
// failures, and BENCHMARK.json matches the catalogue.
//
//	cd perfbench && go test .             # check
//	cd perfbench && go test . -update     # rewrite ../BENCHMARK.json from the catalogue

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

func TestMain(m *testing.M) {
	// The benchmark re-executes its own binary as the proxy child; under
	// go test that binary is the test binary.
	if os.Getenv(roleEnv) == "server" {
		os.Exit(serverMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []endToEndEntry `json:"end_to_end"`
	PerLayer   []perLayerEntry `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 30

func catalogueFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndEntry{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerEntry{d.name, d.unit, d.better})
	}
	return f
}

func TestBenchmarkJSON(t *testing.T) {
	want := catalogueFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue; run go test . -update\ngot  %+v\nwant %+v", got, want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: bad name or why", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		names[d.name] = true
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad name or unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("per-layer metric %s has no prediction", d.name)
		}
	}
}

// result mirrors the benchmark's last output line.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs the benchmark at tiny scale in-process and returns its exit
// code and parsed last line.
func runTiny(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--seed", "7", "--seconds", "0.4", "--window-ops", "40", "--out", t.TempDir()}, args...)
	code := benchMain(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, last)
		}
	}
	return code, res, out.String()
}

func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloads {
		for _, tr := range []struct {
			flag string
			defs []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w.name+"/trace"+tr.flag, func(t *testing.T) {
				code, res, out := runTiny(t, "--workload", w.name, "--trace", tr.flag)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if len(res.Metrics) != len(tr.defs) {
					t.Errorf("%d metrics emitted, catalogue has %d", len(res.Metrics), len(tr.defs))
				}
				for _, d := range tr.defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if !strings.Contains(out, d.name) {
						t.Errorf("metric %s not printed by name", d.name)
					}
				}
				if tr.flag == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestGateTripsOnInjectedFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads end to end")
	}
	for _, c := range []struct{ workload, inject string }{
		{"udp_calls", string(injectUnprovisionedCallee)},
		{"tcp_calls", string(injectUnprovisionedCallee)},
		{"udp_register", string(injectWrongPassword)},
	} {
		t.Run(c.workload+"/"+c.inject, func(t *testing.T) {
			code, res, out := runTiny(t, "--workload", c.workload, "--trace", "0", "--inject", c.inject)
			if code == 0 {
				t.Fatalf("exit 0 with an injected failure\n%s", out)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("result %+v does not report the failures", res)
			}
		})
	}
}

func TestLedgerCheck(t *testing.T) {
	clean := ledger{HandlesIssued: 4, HandlesClosed: 4, GoroutinesPreLoad: 10, GoroutinesAfter: 10}
	clean.check()
	if len(clean.Violations) != 0 {
		t.Fatalf("clean ledger: %v", clean.Violations)
	}
	for _, l := range []ledger{
		{HandlesIssued: 4, HandlesClosed: 3},
		{PoolDropped: 1},
		{ParseErrors: 1},
		{OverloadRejected: 1},
		{GoroutinesPreLoad: 10, GoroutinesAfter: 11},
	} {
		l.check()
		if len(l.Violations) != 1 {
			t.Errorf("%+v: violations %v, want one", l, l.Violations)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(s, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := quantile(s, 0.99); q != 10 {
		t.Errorf("p99 = %v, want 10", q)
	}
	if q := quantile(s, 0.1); q != 1 {
		t.Errorf("p10 = %v, want 1", q)
	}
}
