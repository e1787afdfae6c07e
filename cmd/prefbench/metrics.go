package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it. The bounds live
// only in BENCHMARK.json, where -compare reads them;
// TestMetricTablesMatchBenchmarkJSON keeps names, units and directions
// in step with this file.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are what a caller of the allocator sees. Every
// workload reports every one of them in an untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"funcs_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p99", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"alloc_kb_per_func", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"est_cycles", "cycles", "lower"},
	{"spill_instrs", "count", "lower"},
	{"moves_remaining", "count", "lower"},
	{"full_tier_frac", "ratio", "higher"},
}

// pipelineLayers are the public calls the traced compile replay times,
// in driver order. The core.* entries split core.allocate by the
// allocator's own telemetry phases.
var pipelineLayers = []string{
	"regalloc.validate_input",
	"ir.clone",
	"ig.renumber",
	"cfg.analyze",
	"liveness.compute",
	"costmodel.analyze",
	"ig.build",
	"core.allocate",
	"core.rpg",
	"core.simplify",
	"core.cpg",
	"core.select",
	"core.recolor",
	"regalloc.check_result",
	"regalloc.spill",
	"regalloc.rewrite",
}

// perLayerMetrics are reported by traced runs. A metric whose layer is
// not on a workload's path (HTTP on compile-*, the replayed pipeline on
// serve-*) reads 0 with 0 samples.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range pipelineLayers {
		defs = append(defs, metricDef{l + ".ms", "ms", "lower"}, metricDef{l + ".share", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"regalloc.rounds_per_func", "count", "lower"},
		metricDef{"ig.webs_per_round", "count", "lower"},
		metricDef{"ig.edges_per_round", "count", "lower"},
		metricDef{"core.selections_per_func", "count", "lower"},
		metricDef{"core.select_spills_per_func", "count", "lower"},
		metricDef{"core.recolors_per_func", "count", "lower"},
		metricDef{"core.prefs_honored_frac", "ratio", "higher"},
		metricDef{"trace.attributed_frac", "ratio", "higher"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
		metricDef{"http.transport.ms", "ms", "lower"},
		metricDef{"server.handler.ms_p50", "ms", "lower"},
		metricDef{"server.handler.ms_p99", "ms", "lower"},
		metricDef{"server.compute.ms_per_job", "ms", "lower"},
		metricDef{"server.cache.hit_frac", "ratio", "higher"},
		metricDef{"server.cache.evictions_per_s", "1/s", "lower"},
		metricDef{"server.singleflight.shared", "count", "higher"},
		metricDef{"server.rejected_429", "count", "lower"},
		metricDef{"server.jobs_dropped", "count", "lower"},
		metricDef{"server.workspace_pool.hit_frac", "ratio", "higher"},
		metricDef{"tier.hit_ms_p50", "ms", "lower"},
		metricDef{"tier.miss_ms_p50", "ms", "lower"},
		metricDef{"tier.miss_ms_p99", "ms", "lower"},
		metricDef{"tier.upgrades_per_s", "1/s", "higher"},
		metricDef{"tier.sheds_per_s", "1/s", "lower"},
		metricDef{"tier.upgrade_s_mean", "s", "lower"},
		metricDef{"tier.quality_ratio", "ratio", "lower"},
		metricDef{"go.gc_cpu_frac", "ratio", "lower"},
		metricDef{"go.gc_cycles_per_s", "1/s", "lower"},
	)
}()

// metricOut is one reported metric.
type metricOut struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload run: what the child prints and the record
// stores.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Checked counts outputs compared against an in-process oracle;
	// Mismatches those that disagreed.
	Checked    int                  `json:"checked"`
	Mismatches int                  `json:"mismatches"`
	Metrics    map[string]metricOut `json:"metrics"`
}

// sample is a measured value and the number of observations behind it.
type sample struct {
	v float64
	n int
}

// values collects a run's measurements by metric name.
type values map[string]sample

func (vs values) set(name string, v float64, n int) { vs[name] = sample{v, n} }

// finish shapes the measurements into a result carrying exactly the
// metrics of the run's mode: the end-to-end set untraced, the per-layer
// set traced.
func finish(workload string, traced bool, vs values, attempted, failed, checked, mismatches int) (*result, error) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	r := &result{
		Workload: workload, Attempted: attempted, Failed: failed,
		Checked: checked, Mismatches: mismatches,
		Correct: checked > 0 && mismatches == 0,
		Metrics: make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		s, ok := vs[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s: metric %s was not measured", workload, d.Name)
		}
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", workload, d.Name, s.v)
		}
		r.Metrics[d.Name] = metricOut{Value: s.v, Unit: d.Unit, Samples: s.n}
	}
	return r, nil
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// sliceLen is the length of the alternating untraced and traced slices
// of a traced run, so drift on a shared host hits both sides alike.
const sliceLen = time.Second

// traceSlices decides which slice of a traced run an instant falls in.
type traceSlices struct {
	start time.Time
	on    bool // false: an untraced run, never traced
}

func (s traceSlices) traced(t time.Time) bool {
	return s.on && (t.Sub(s.start)/sliceLen)%2 == 1
}

// tracedWall returns how much of [start, end] fell in traced slices.
func (s traceSlices) tracedWall(end time.Time) time.Duration {
	if !s.on {
		return 0
	}
	el := end.Sub(s.start)
	w := el / (2 * sliceLen) * sliceLen
	if rem := el % (2 * sliceLen); rem > sliceLen {
		w += rem - sliceLen
	}
	return w
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// sorting xs in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so spreads read the same here and in any Python tooling.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rtStats is a reading of the Go runtime's own counters.
type rtStats struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtStats{
		allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// recordRuntime sets the metrics derived from runtime counters over a
// timed phase of secs seconds that completed ok functions.
func recordRuntime(vs values, before, after rtStats, secs float64, ok int) {
	vs.set("alloc_kb_per_func", ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(ok)), ok)
	cycles := int(after.gcCycles - before.gcCycles)
	vs.set("go.gc_cycles_per_s", ratio(float64(cycles), secs), cycles)
	vs.set("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), cycles)
}

// peakRSSMB returns this process's peak resident set size. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// span is one timed call at a layer boundary.
type span struct {
	name       string
	start, end time.Time
	parent     int   // 1-based index of the enclosing span; 0 for a root
	req        int64 // the function call or HTTP request the span belongs to
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its 1-based id.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start, end, parent, req})
	return len(t.spans)
}

// layerTimes sums each span name's self time (its duration less the
// part its child spans cover) and counts its spans.
func (t *tracer) layerTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		self[s.name] += d
		count[s.name]++
		if s.parent > 0 {
			self[t.spans[s.parent-1].name] -= d
		}
	}
	return self, count
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, ms(s.end.Sub(s.start)))
		}
	}
	return ds
}

// write emits the spans as JSON lines. Times are nanoseconds since the
// tracer was created; parent is the id (1-based line number within this
// workload's spans) of the enclosing span, 0 for a root.
func (t *tracer) write(w io.Writer, workload string) error {
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			ID       int    `json:"id"`
			Name     string `json:"name"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			Parent   int    `json:"parent"`
			Req      int64  `json:"req"`
		}{workload, i + 1, s.name, int64(s.start.Sub(t.epoch)), int64(s.end.Sub(t.epoch)), s.parent, s.req}); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
