package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// bounded is a metric's direction and, for end-to-end metrics, the
// share of the base median by which it may worsen.
type bounded struct {
	better   string
	bound    float64
	hasBound bool
}

func loadBounds(path string) (map[string]bounded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bounded{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = bounded{m.Better, m.Bound, true}
	}
	for _, m := range bf.PerLayer {
		out[m.Name] = bounded{better: m.Better}
	}
	return out, nil
}

// recordSets expands the arguments (directories, files or globs) into
// result files and splits them by directory: the first directory named
// is the base, the second the head.
func recordSets(args []string) (base, head []string, err error) {
	var dirs []string
	byDir := map[string][]string{}
	add := func(p string) {
		d := filepath.Dir(p)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], p)
	}
	for _, a := range args {
		pattern := a
		if fi, err := os.Stat(a); err == nil && fi.IsDir() {
			pattern = filepath.Join(a, "*.json")
		}
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			return nil, nil, fmt.Errorf("no result records match %q", a)
		}
		for _, f := range files {
			add(f)
		}
	}
	if len(dirs) != 2 {
		return nil, nil, fmt.Errorf("want result records in two directories, base then head; got %d", len(dirs))
	}
	return byDir[dirs[0]], byDir[dirs[1]], nil
}

// runValue is one record's value of one metric.
type runValue struct {
	seed  int64
	value float64
}

// loadRuns reads result records into workload → metric → values.
func loadRuns(files []string) (map[string]map[string][]runValue, map[string]string, error) {
	runs := map[string]map[string][]runValue{}
	units := map[string]string{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Schema != recordSchema {
			return nil, nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
		}
		for _, w := range rec.Workloads {
			if runs[w.Workload] == nil {
				runs[w.Workload] = map[string][]runValue{}
			}
			for name, m := range w.Metrics {
				runs[w.Workload][name] = append(runs[w.Workload][name], runValue{rec.Seed, m.Value})
				units[name] = m.Unit
			}
		}
	}
	return runs, units, nil
}

// comparison is one workload's metric on both sides.
type comparison struct {
	base, head  [3]float64 // first quartile, median, third quartile
	pairs, wins int
	verdict     string
}

// compareMetric judges head against base. With a bound: "worse" when
// head's median is worse than base's by more than the bound and either
// both sides' spreads (interquartile range over median) are within the
// bound, every head run is worse than every base run, or the median
// worsened by more than the bound plus the larger spread; "unresolved"
// when a spread exceeds the bound, unless every head run beats every
// base run; and "not worse" otherwise. "gain" is added only when head wins
// at least nine of ten pairs (runs with the same seed, at least ten)
// and the medians differ by more than base's interquartile range.
func compareMetric(b bounded, base, head []runValue) comparison {
	var c comparison
	bv, hv := valuesOf(base), valuesOf(head)
	c.base[0], c.base[1], c.base[2] = quartiles(bv)
	c.head[0], c.head[1], c.head[2] = quartiles(hv)
	better := func(x, y float64) bool {
		if b.better == "higher" {
			return x > y
		}
		return x < y
	}
	bySeed := map[int64][]float64{}
	for _, r := range base {
		bySeed[r.seed] = append(bySeed[r.seed], r.value)
	}
	for _, r := range head {
		if q := bySeed[r.seed]; len(q) > 0 {
			c.pairs++
			if better(r.value, q[0]) {
				c.wins++
			}
			bySeed[r.seed] = q[1:]
		}
	}
	if !b.hasBound {
		c.verdict = "no bound"
		return c
	}
	worse := (c.head[1] - c.base[1]) / math.Abs(c.base[1])
	if b.better == "higher" {
		worse = -worse
	}
	if c.head[1] == c.base[1] {
		worse = 0
	}
	spread := func(q [3]float64) float64 {
		if q[2] == q[0] {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	allBetter, allWorse := len(hv) > 0 && len(bv) > 0, len(hv) > 0 && len(bv) > 0
	for _, h := range hv {
		for _, x := range bv {
			allBetter = allBetter && better(h, x)
			allWorse = allWorse && better(x, h)
		}
	}
	maxSpread := max(spread(c.base), spread(c.head))
	noisy := maxSpread > b.bound
	switch {
	case worse > b.bound && (!noisy || allWorse || worse > b.bound+maxSpread):
		c.verdict = "worse"
	case noisy && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "not worse"
	}
	if c.pairs >= 10 && 10*c.wins >= 9*c.pairs && better(c.head[1], c.base[1]) &&
		math.Abs(c.head[1]-c.base[1]) > c.base[2]-c.base[0] {
		c.verdict += ", gain"
	}
	return c
}

func valuesOf(rs []runValue) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.value
	}
	return vs
}

const compareRow = "%-15s %-34s %-6s %-36s %-36s %8s %6s  %s\n"

// runCompare prints, for every workload and metric, both sides' median
// and quartiles and the verdict; it exits 1 when any metric is worse.
func runCompare(args []string, benchmarkPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "prefbench: -compare: %v\n", err)
		return 2
	}
	bounds, err := loadBounds(benchmarkPath)
	if err != nil {
		return fail(err)
	}
	baseFiles, headFiles, err := recordSets(args)
	if err != nil {
		return fail(err)
	}
	base, units, err := loadRuns(baseFiles)
	if err != nil {
		return fail(err)
	}
	head, _, err := loadRuns(headFiles)
	if err != nil {
		return fail(err)
	}
	var workloads []string
	for w := range base {
		if head[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(stdout, compareRow,
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "verdict")
	code := 0
	for _, w := range workloads {
		var names []string
		for name := range base[w] {
			if _, ok := head[w][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			c := compareMetric(bounds[name], base[w][name], head[w][name])
			if c.verdict == "worse" {
				code = 1
			}
			change := "n/a"
			if c.base[1] != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(c.head[1]-c.base[1])/math.Abs(c.base[1]))
			}
			fmt.Fprintf(stdout, compareRow, w, name, units[name],
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.base[1], c.base[0], c.base[2]),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.head[1], c.head[0], c.head[2]),
				change, fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return code
}
