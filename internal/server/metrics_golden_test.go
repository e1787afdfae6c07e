package server

import (
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// maskSamples replaces every sample value of a Prometheus text page
// with "#", keeping HELP/TYPE lines, names, labels and order: what a
// golden page can pin while counters and timings vary run to run.
func maskSamples(page string) string {
	lines := strings.SplitAfter(page, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
			lines[i] = line[:sp] + " #\n"
		}
	}
	return strings.Join(lines, "")
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden page (rerun with -update to inspect):\n--- got\n%s", path, got)
	}
}

// TestMetricsGolden pins the tier-mode daemon's whole /metrics page —
// every family name, HELP and TYPE line, label set and their order —
// with the sample values masked. The request mix is fixed (one fast-
// tier allocation, one bad request, one health check), so the label
// sets are too.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Tier: true})
	for _, body := range []string{
		`{"source":"func g(v0) {\nb0:\n  v1 = add v0, v0\n  ret v1\n}\n"}`,
		`{"source":""}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type = %q", ct)
	}
	checkGolden(t, "metrics_daemon.golden", maskSamples(string(page)))
}
