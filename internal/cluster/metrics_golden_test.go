package cluster

import (
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"prefcolor/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// maskSamples replaces every sample value of a Prometheus text page
// with "#", keeping HELP/TYPE lines, names, labels and order.
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

// TestRouterMetricsGolden pins the router's whole /metrics page over
// two replicas with the sample values masked: family names, HELP and
// TYPE lines, label sets and order. The request mix is fixed (the
// same allocation twice, one bad request, one health check) and the
// ring is a pure function of the replica IDs, so the label sets are
// fixed too.
func TestRouterMetricsGolden(t *testing.T) {
	reps := startReplicas(t, 2, server.Config{Workers: 1, QueueSize: 8, CacheEntries: 16})
	_, front := newTestRouter(t, reps, Config{})
	for _, body := range []string{
		`{"source":"func g(v0) {\nb0:\n  v1 = add v0, v0\n  ret v1\n}\n"}`,
		`{"source":"func g(v0) {\nb0:\n  v1 = add v0, v0\n  ret v1\n}\n"}`,
		`{"source":""}`,
	} {
		resp, err := http.Post(front.URL+"/v1/allocate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(front.URL + "/metrics")
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
	got := maskSamples(string(page))
	const path = "testdata/metrics_router.golden"
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
