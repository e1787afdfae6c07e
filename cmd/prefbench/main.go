// Command prefbench is the repository's benchmark: it measures the
// preference-directed allocator end to end as a JIT would call it
// (compile-large, compile-suite) and as the allocation daemon's callers
// see it (serve-cold, serve-hot-tier), checks every output against an
// in-process oracle, and prints each metric with its unit and sample
// count. A traced run (-trace 1) reports the per-layer metrics instead.
//
// Build and run it from the repository root:
//
//	sh cmd/prefbench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-spans f.jsonl] [-out run.json]
//	sh cmd/prefbench/run.sh -compare 'base/*.json' 'head/*.json'
//
// Each workload runs in its own child process, so heap, GC and peak
// RSS do not leak between workloads. The last line of standard output
// is one JSON object: correct, attempted, failed and the metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"compile-large", "compile-suite", "serve-cold", "serve-hot-tier"}

// options are one workload run's settings.
type options struct {
	seed    int64
	seconds time.Duration // the timed phase
	trace   bool
	small   bool // a small corpus, for the smoke test
}

func runWorkload(name string, o options) (*result, *tracer, error) {
	switch name {
	case "compile-large", "compile-suite":
		return runCompile(name, o)
	case "serve-cold", "serve-hot-tier":
		return runServe(name, o)
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// childMargin is how long a workload's child process may run beyond its
// timed phase before it is stopped. Set-up and the output checks take
// at most about 15 s (serve-hot-tier's three set-ups and its oracle).
const childMargin = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloads := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated `names` of the workloads to run")
	seed := fs.Int64("seed", 1, "`seed` of every generated request order and stream")
	seconds := fs.Float64("seconds", 20, "length of each timed phase in `seconds`")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON-lines `file`")
	out := fs.String("out", "", "write the result record to this JSON `file`")
	compare := fs.Bool("compare", false, "compare two sets of result records: -compare BASE HEAD, each a directory, file or glob")
	child := fs.Bool("child", false, "run one workload in this process (how the parent starts each workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), "BENCHMARK.json", stdout, stderr)
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "prefbench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return usage("-seconds must be positive, got %g", *seconds)
	}
	if *spans != "" && *trace != 1 {
		return usage("-spans needs -trace 1")
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	names := strings.Split(*workloads, ",")
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			return usage("unknown workload %q (want one of %s)", n, strings.Join(workloadNames, ", "))
		}
	}
	if *child {
		if len(names) != 1 {
			return usage("-child runs one workload")
		}
		return runChild(names[0], o, *spans, stdout, stderr)
	}
	return runParent(names, o, *spans, *out, stdout, stderr)
}

// runChild runs one workload in this process and prints its result as
// one JSON line.
func runChild(name string, o options, spansPath string, stdout, stderr io.Writer) int {
	r, tr, err := runWorkload(name, o)
	if err != nil {
		fmt.Fprintf(stderr, "prefbench: %s: %v\n", name, err)
		return 1
	}
	if tr != nil && spansPath != "" {
		if err := appendSpans(spansPath, tr, name); err != nil {
			fmt.Fprintf(stderr, "prefbench: %s: %v\n", name, err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "prefbench: %s: %v\n", name, err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

func appendSpans(path string, tr *tracer, workload string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = tr.write(bw, workload)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runParent runs each workload in a child process, prints the metrics,
// writes the record, and ends with the one-line JSON result.
func runParent(names []string, o options, spansPath, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "prefbench: %v\n", err)
		return 1
	}
	if spansPath != "" {
		if err := os.WriteFile(spansPath, nil, 0o644); err != nil {
			fmt.Fprintf(stderr, "prefbench: %v\n", err)
			return 1
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var results []*result
	for _, name := range names {
		r, err := runChildProcess(ctx, exe, name, o, spansPath, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "prefbench: %v\n", err)
			return 1
		}
		results = append(results, r)
	}
	printResults(stdout, results, o.trace)
	if outPath != "" {
		if err := writeRecord(outPath, o, results); err != nil {
			fmt.Fprintf(stderr, "prefbench: %v\n", err)
			return 1
		}
	}
	line, code := summary(results)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "prefbench: %v\n", err)
		return 1
	}
	return code
}

// runChildProcess runs one workload in a child process and reads the
// result it prints. A child that fails its output check still prints a
// result, with correct false.
func runChildProcess(ctx context.Context, exe, name string, o options, spansPath string, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, o.seconds+childMargin)
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
		"-trace", trace, "-spans", spansPath)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Workload != name || (runErr != nil && r.Correct) {
		if runErr == nil {
			runErr = fmt.Errorf("unreadable result %q", lines[len(lines)-1])
		}
		return nil, fmt.Errorf("workload %s: %w", name, runErr)
	}
	return &r, nil
}

// printResults prints every metric by name with its value, unit and
// sample count, and each workload's output check.
func printResults(w io.Writer, results []*result, traced bool) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	for _, r := range results {
		fmt.Fprintf(w, "%s: %d of %d calls failed; %d outputs checked, %d mismatches\n",
			r.Workload, r.Failed, r.Attempted, r.Checked, r.Mismatches)
		for _, d := range defs {
			m := r.Metrics[d.Name]
			fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
		}
	}
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the results into the last output line; with several
// workloads, metric names are prefixed "workload/". The exit code is 1
// when any output check failed.
func summary(results []*result) (summaryLine, int) {
	line := summaryLine{Correct: true, Metrics: map[string]summaryItem{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = summaryItem{m.Value, m.Unit}
		}
	}
	if !line.Correct {
		return line, 1
	}
	return line, 0
}

// record is the fixed-schema result file -out writes and -compare reads.
type record struct {
	Schema    string    `json:"schema"`
	Env       envStamp  `json:"env"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Workloads []*result `json:"workloads"`
}

type envStamp struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

const recordSchema = "prefbench/1"

func writeRecord(path string, o options, results []*result) error {
	rec := record{
		Schema: recordSchema,
		Env: envStamp{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(),
			CPU: cpuModel(), Go: runtime.Version(), Commit: commit(),
		},
		Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Workloads: results,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, as the go
// command stamps it; "unknown" outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// cpuModel reads the processor name Linux reports; "unknown" elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
