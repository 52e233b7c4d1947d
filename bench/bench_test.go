package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, on the tiny
// corpus: every named metric must be present and finite, every rep must
// match the serial reference, and the traced pass must leave a trace file.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, sc := range scenarios {
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{Workload: sc.Name, Seed: 1, Seconds: 0.2, Trace: trace, Spec: smokeSpec, OutDir: out, ProbeSteps: 500})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sc.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sc.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d defined", sc.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				s, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", sc.Name, trace, d.Name)
				case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", sc.Name, trace, d.Name, s.Value)
				case s.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, defined %q", sc.Name, trace, d.Name, s.Unit, d.Unit)
				case !trace && s.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sc.Name, d.Name, s.Value)
				}
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+sc.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s trace file: %v", sc.Name, err)
		}
		for _, want := range []string{"rep.closed", "rep.paced", "staged", "runtime.submit", "scheduler.evaluate", "engine.fold"} {
			if tf.Layers[want] == nil {
				t.Errorf("%s trace file: no %s spans", sc.Name, want)
			}
		}
		if _, ok := tf.Counters["bench.trace_overhead_share"]; !ok {
			t.Errorf("%s trace file: bench.trace_overhead_share missing", sc.Name)
		}
	}
}

// TestSeedIsTheOnlyInput: one seed gives one corpus, byte for byte; another
// seed gives another.
func TestSeedIsTheOnlyInput(t *testing.T) {
	a, err := genCorpus(smokeSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCorpus(smokeSpec, 7)
	c, _ := genCorpus(smokeSpec, 8)
	if a.Hash != b.Hash || renderNDJSON(a.Events).Hash != renderNDJSON(b.Events).Hash {
		t.Error("same seed, different corpus")
	}
	if a.Hash == c.Hash {
		t.Error("different seeds, same corpus")
	}
	if len(a.Markers) == 0 || a.Events[a.Markers[0]].Subject.ExeName != markerExe {
		t.Error("no marker events")
	}
}

// TestRoundTripCatchesADifference: the self-check must fail when a rendered
// line no longer says what the event says.
func TestRoundTripCatchesADifference(t *testing.T) {
	c, err := genCorpus(smokeSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := renderNDJSON(c.Events)
	if err := checkRoundTrip(c.Events, r); err != nil {
		t.Fatal(err)
	}
	r.Data = bytes.Replace(r.Data, []byte(`"op":"read"`), []byte(`"op":"recv"`), 1) // same op, still equal
	if err := checkRoundTrip(c.Events, r); err != nil {
		t.Errorf("alias spelling rejected: %v", err)
	}
	c.Events[3].Amount++
	if err := checkRoundTrip(c.Events, r); err == nil {
		t.Error("changed amount not detected")
	}
}

// TestOracleCountsMissingAndSpurious: the multiset comparison must count
// both directions.
func TestOracleCountsMissingAndSpurious(t *testing.T) {
	in := &input{ref: map[string]int{"a": 2, "b": 1}}
	if got := in.mismatch(nil); got != 3 {
		t.Errorf("all missing: %d, want 3", got)
	}
	in.ref = map[string]int{}
	c, _ := genCorpus(smokeSpec, 1)
	sc, _ := findScenario("hot-state")
	in = &input{sc: sc, c: c, queries: sc.Queries(c)}
	_, alerts, err := in.runSerial()
	if err != nil {
		t.Fatal(err)
	}
	in.ref = multiset(alerts)
	if got := in.mismatch(alerts); got != 0 {
		t.Errorf("reference against itself: %d", got)
	}
	if got := in.mismatch(append(alerts[1:], alerts[1])); got != 2 {
		t.Errorf("one missing and one duplicated: %d, want 2", got)
	}
}

// TestQuantileMatchesPython pins the quartile rule to what Python's
// statistics.quantiles(values, n=4) returns, since the driver uses that.
func TestQuantileMatchesPython(t *testing.T) {
	s := summarize("x", []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Value != s.Median {
		t.Errorf("quartiles %v %v %v value %v, want 2.75 5.5 8.25 5.5", s.Q1, s.Median, s.Q3, s.Value)
	}
}

// TestBenchmarkJSONAgrees: BENCHMARK.json at the repo root and the tables in
// metrics.go / workload.go must list the same names, units and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory")
	}
	var bj struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(scenarios) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d scenarios", len(bj.Workloads), len(scenarios))
	}
	for i, w := range bj.Workloads {
		if w.Name != scenarios[i].Name || w.Why != scenarios[i].Why {
			t.Errorf("workload %d: %q / %q differs from the scenario table", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in metrics.go", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestCompareRefusesAndMarks: results from different machines or seeds are
// refused; a spread wider than the bound reads "unresolved", not "unchanged".
func TestCompareRefusesAndMarks(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, nproc int, eps sample) string {
		s := suiteResult{Seed: 1, Seconds: 20, Env: environment{NProc: nproc, GOMAXPROCS: nproc}, Workloads: map[string]*workloadRun{}}
		for _, sc := range scenarios {
			rr := &runResult{Metrics: map[string]sample{}}
			for _, d := range endToEnd {
				rr.Metrics[d.Name] = sample{Unit: d.Unit, Value: 10, Median: 10, Q1: 10, Q3: 10, N: 5}
			}
			rr.Metrics["events_per_s"] = eps
			s.Workloads[sc.Name] = &workloadRun{EndToEnd: rr}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := sample{Unit: "events/s", Value: 101, Median: 100, Q1: 99, Q3: 101, N: 9}
	base := mk("a.json", 2, steady)
	var buf bytes.Buffer
	if _, err := compareFiles(&buf, base, mk("b.json", 4, steady)); err == nil {
		t.Error("different nproc compared")
	}
	slower := steady
	slower.Value, slower.Median, slower.Q1, slower.Q3 = 51, 50, 49, 51
	beyond, err := compareFiles(&buf, base, mk("c.json", 2, slower))
	if err != nil || beyond != len(scenarios) || !strings.Contains(buf.String(), "WORSE") {
		t.Errorf("half as fast: beyond=%d err=%v\n%s", beyond, err, buf.String())
	}
	buf.Reset()
	noisy := sample{Unit: "events/s", Value: 100, Median: 80, Q1: 50, Q3: 100, N: 9}
	beyond, err = compareFiles(&buf, base, mk("d.json", 2, noisy))
	if err != nil || beyond != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("noisy side: beyond=%d err=%v\n%s", beyond, err, buf.String())
	}
}
