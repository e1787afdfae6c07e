package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// checkResult asserts a run failed nothing, matched its oracle, and
// reported exactly the given metrics, each with its unit.
func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s: %d of %d calls failed", r.Workload, r.Failed, r.Attempted)
	}
	if !r.Correct || r.Checked == 0 || r.Mismatches != 0 {
		t.Errorf("%s: correct=%v, %d outputs checked, %d mismatches", r.Workload, r.Correct, r.Checked, r.Mismatches)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", r.Workload, d.Name, m, d.Unit)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r, _, err := runWorkload(name, options{seed: 1, seconds: time.Second, small: true})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEndMetrics)
			for _, n := range []string{"funcs_per_s", "latency_ms_p50", "est_cycles", "peak_rss_mb"} {
				if m := r.Metrics[n]; m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestTracedCompileLarge(t *testing.T) {
	r, tr, err := runWorkload("compile-large", options{seed: 2, seconds: 2 * time.Second, trace: true, small: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, perLayerMetrics)
	if f := r.Metrics["trace.attributed_frac"].Value; f < 0.95 || f > 1.01 {
		t.Errorf("trace.attributed_frac = %v, want in [0.95, 1.01]", f)
	}
	for _, l := range pipelineLayers {
		if m := r.Metrics[l+".ms"]; m.Value <= 0 {
			t.Errorf("%s.ms = %v, want > 0", l, m.Value)
		}
	}
	var buf bytes.Buffer
	if err := tr.write(&buf, "compile-large"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(tr.spans) || lines == 0 {
		t.Errorf("wrote %d span lines for %d spans", lines, len(tr.spans))
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables here and
// the lists in BENCHMARK.json the same.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEndMetrics:\n%v\n%v", bf.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics:\n%v\n%v", bf.PerLayer, perLayerMetrics)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(vs ...float64) []runValue {
		rs := make([]runValue, len(vs))
		for i, v := range vs {
			rs[i] = runValue{int64(i + 1), v}
		}
		return rs
	}
	steady := runs(100, 101, 99, 100, 100, 101, 99, 100, 100, 100)
	lower := bounded{better: "lower", bound: 0.10, hasBound: true}
	for _, c := range []struct {
		name       string
		b          bounded
		base, head []runValue
		want       string
	}{
		{"same", lower, steady, steady, "not worse"},
		{"worse", lower, steady, runs(120, 121, 119, 120, 120, 121, 119, 120, 120, 120), "worse"},
		{"within bound", lower, steady, runs(105, 106, 104, 105, 105, 106, 104, 105, 105, 105), "not worse"},
		{"noisy", lower, steady, runs(60, 140, 80, 130, 100, 70, 150, 90, 110, 120), "unresolved"},
		{"noisy but every run worse", lower, steady,
			runs(130, 170, 140, 160, 150, 135, 175, 145, 155, 165), "worse"},
		{"noisy but far worse", lower, steady,
			runs(60, 300, 250, 280, 260, 240, 270, 255, 265, 275), "worse"},
		{"gain", lower, steady, runs(80, 81, 79, 80, 80, 81, 79, 80, 80, 80), "not worse, gain"},
		{"higher is better", bounded{better: "higher", bound: 0.10, hasBound: true}, steady,
			runs(80, 81, 79, 80, 80, 81, 79, 80, 80, 80), "worse"},
		{"exact", bounded{better: "lower", bound: 0, hasBound: true}, runs(7, 7), runs(8, 8), "worse"},
		{"per-layer", bounded{better: "lower"}, steady, steady, "no bound"},
	} {
		if got := compareMetric(c.b, c.base, c.head).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
